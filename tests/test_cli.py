"""End-to-end command tests: exit codes, report content, determinism."""

import io
import json
import sys
from fractions import Fraction

import pytest

from dintervals import Instance, PointSet, dump_instance, gen_helly_lower_bound
from dintervals import cli
from dintervals.cli import run_command
from helpers import p6


def write(tmp_path, name: str, text: str) -> str:
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def two_interval_instance(tmp_path) -> str:
    doc = {
        "d": 1,
        "points": [["0", 1], ["1", 1], ["2", 1], ["3", 1]],
        "sets": [
            {"name": "C1", "levels": [{"level": 1, "lo": "0", "hi": "2"}]},
            {"name": "C2", "levels": [{"level": 1, "lo": "1", "hi": "3"}]},
        ],
    }
    return write(tmp_path, "two.json", json.dumps(doc))


def triple_instance(tmp_path) -> str:
    doc = {
        "d": 2,
        "points": [
            ["0", 1], ["1", 1], ["2", 1], ["4", 1], ["5", 1],
            ["0", 2], ["1", 2], ["2", 2], ["3", 2],
        ],
        "sets": [
            {"name": "A", "levels": [
                {"level": 1, "lo": "0", "hi": "1"}, {"level": 2, "lo": "0", "hi": "1"}]},
            {"name": "B", "levels": [
                {"level": 1, "lo": "1", "hi": "2"}, {"level": 2, "lo": "2", "hi": "3"}]},
            {"name": "C", "levels": [
                {"level": 1, "lo": "4", "hi": "5"}, {"level": 2, "lo": "1", "hi": "2"}]},
        ],
    }
    return write(tmp_path, "triple.json", json.dumps(doc))


def lower_bound_instance(tmp_path) -> str:
    fam = gen_helly_lower_bound(p6())
    inst = Instance(p6(), fam, [f"S{i + 1}" for i in range(len(fam))])
    return write(tmp_path, "lb.json", dump_instance(inst))


def run(capsys, *argv) -> tuple[int, dict]:
    code = run_command(list(argv))
    out = capsys.readouterr().out
    return code, (json.loads(out) if out.startswith("{") else {})


# ------------------------------------------------------------------ collapse


def test_collapse_two_intervals_reports_two_steps(tmp_path, capsys):
    path = two_interval_instance(tmp_path)
    code, report = run(capsys, "collapse", path)
    assert code == 0
    assert report["verdicts"] == {"collapsed": True}
    assert report["statistics"]["steps"] == 2
    assert [row["pivot"] for row in report["instances"]] == [[1], [2]]
    assert report["statistics"]["max_free_face"] == 1


def test_nerve_lists_faces_with_names(tmp_path, capsys):
    path = triple_instance(tmp_path)
    code, report = run(capsys, "nerve", path)
    assert code == 0
    assert report["statistics"]["faces"] == 7  # triangle boundary plus empty face
    assert report["witnesses"]["names"]["1"] == "A"
    assert [1, 2] in report["witnesses"]["faces"]
    assert [1, 2, 3] not in report["witnesses"]["faces"]


def test_dcollapse_oracle_is_a_query_either_way(tmp_path, capsys):
    path = triple_instance(tmp_path)
    code, report = run(capsys, "dcollapse-oracle", path, "--bound", "1")
    assert code == 0
    assert report["statistics"]["collapsible"] is False
    code, report = run(capsys, "dcollapse-oracle", path, "--bound", "2")
    assert code == 0
    assert report["statistics"]["collapsible"] is True
    assert report["witnesses"]["sequence"]


# ----------------------------------------------------------- helly and radon


def test_helly_violation_exits_one_with_witness(tmp_path, capsys):
    path = lower_bound_instance(tmp_path)
    code, report = run(capsys, "helly", path, "--m", "3")
    assert code == 1
    assert report["verdicts"] == {"holds": False}
    assert report["witnesses"]["violating_family"] == [0, 1, 2, 3]


def test_helly_vacuous_at_family_size(tmp_path, capsys):
    path = lower_bound_instance(tmp_path)
    code, report = run(capsys, "helly", path, "--m", "4")
    assert code == 0 and report["verdicts"] == {"holds": True}


def test_radon_number_on_the_six_point_ground(tmp_path, capsys):
    doc = {
        "d": 2,
        "points": [[str(c), l] for l in (1, 2) for c in (0, 1, 2)],
        "sets": [],
    }
    path = write(tmp_path, "pts.json", json.dumps(doc))
    code, report = run(capsys, "radon", path)
    assert code == 0
    assert report["parameters"]["cap"] == 5
    assert report["statistics"]["radon_number"] == 5


def test_radon_cap_below_one_exits_two(tmp_path, capsys):
    doc = {"d": 1, "points": [["0", 1], ["1", 1]], "sets": []}
    path = write(tmp_path, "pts.json", json.dumps(doc))
    for cap in ("0", "-1"):
        assert run_command(["radon", path, "--cap", cap]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "cap must be ≥ 1" in captured.err


# ------------------------------------------------------------------ colorful


def colorful_pair_instance(tmp_path) -> str:
    doc = {
        "d": 1,
        "points": [["0", 1], ["1", 1], ["2", 1]],
        "sets": [
            {"name": "wide", "levels": [{"level": 1, "lo": "0", "hi": "2"}]},
            {"name": "short", "levels": [{"level": 1, "lo": "0", "hi": "1"}]},
        ],
        "families": [[0], [1]],
    }
    return write(tmp_path, "pair.json", json.dumps(doc))


def test_colorful_helly_selects_points(tmp_path, capsys):
    path = colorful_pair_instance(tmp_path)
    code, report = run(capsys, "colorful-helly", path, "--k", "1")
    assert code == 0
    assert report["witnesses"]["points"] == [["1", 1]]
    assert report["witnesses"]["designated"] == 0


def test_colorful_helly_rotation_can_violate(tmp_path, capsys):
    path = colorful_pair_instance(tmp_path)
    code = run_command(["colorful-helly", path, "--k", "1", "--rotate", "1"])
    err = capsys.readouterr().err
    assert code == 1
    assert "misses a selected point" in err


def test_frac_helly_statistics(tmp_path, capsys):
    doc = {
        "d": 1,
        "points": [[str(c), 1] for c in (0, 1, 2, 8, 9)],
        "sets": [
            {"name": "a", "levels": [{"level": 1, "lo": "0", "hi": "1"}]},
            {"name": "b", "levels": [{"level": 1, "lo": "1", "hi": "2"}]},
            {"name": "c", "levels": [{"level": 1, "lo": "0", "hi": "2"}]},
            {"name": "d", "levels": [{"level": 1, "lo": "8", "hi": "9"}]},
        ],
    }
    path = write(tmp_path, "frac.json", json.dumps(doc))
    code, report = run(capsys, "frac-helly", path)
    assert code == 0
    assert report["statistics"]["alpha"] == "1/2"
    assert report["statistics"]["alpha_decimal"] == "0.5"
    assert report["statistics"]["beta_hat"] == "3/4"


def test_cfh_over_two_families(tmp_path, capsys):
    doc = {
        "d": 1,
        "points": [[str(c), 1] for c in (0, 1, 2, 3)],
        "sets": [
            {"name": "a", "levels": [{"level": 1, "lo": "0", "hi": "1"}]},
            {"name": "b", "levels": [{"level": 1, "lo": "2", "hi": "3"}]},
            {"name": "c", "levels": [{"level": 1, "lo": "0", "hi": "3"}]},
        ],
        "families": [[0, 1], [2]],
    }
    path = write(tmp_path, "cfh.json", json.dumps(doc))
    code, report = run(capsys, "cfh", path)
    assert code == 0
    assert report["statistics"]["alpha"] == 1
    assert report["verdicts"] == {"bound_holds": True}


# ------------------------------------------------------------------- pierce


def test_pierce_reproduces_the_triple(tmp_path, capsys):
    path = triple_instance(tmp_path)
    code, report = run(capsys, "pierce", path)
    assert code == 0
    stats = report["statistics"]
    assert stats["tau"] == 2 and stats["nu"] == 1
    assert stats["tau_star"] == "3/2" and stats["tau_star_decimal"] == "1.5"
    assert stats["nu_star"] == "3/2"
    assert report["verdicts"] == {"sandwich": True, "lp_certified": True}
    assert len(report["witnesses"]["piercing_points"]) == 2


def test_pq_check_both_ways(tmp_path, capsys):
    path = lower_bound_instance(tmp_path)
    code, report = run(capsys, "pq-check", path, "--p", "4", "--q", "3")
    assert code == 0 and report["verdicts"] == {"has_property": True}
    code, report = run(capsys, "pq-check", path, "--p", "4", "--q", "4")
    assert code == 1
    assert report["witnesses"]["counterexample"] == [0, 1, 2, 3]


# ---------------------------------------------------------------------- gen


def test_gen_writes_a_deterministic_parseable_instance(tmp_path, capsys):
    out1, out2 = str(tmp_path / "a.json"), str(tmp_path / "b.json")
    argv = ["gen", "--d", "2", "--points", "3,4", "--range", "0:6",
            "--sets", "3", "--seed", "5"]
    assert run_command(argv + ["--out", out1]) == 0
    assert run_command(argv + ["--out", out2]) == 0
    capsys.readouterr()
    assert open(out1).read() == open(out2).read()
    code, report = run(capsys, "nerve", out1)
    assert code == 0 and report["parameters"]["sets"] == 3


def test_gen_with_predicate_emits_family_groups(tmp_path, capsys):
    out = str(tmp_path / "col.json")
    code = run_command([
        "gen", "--d", "1", "--points", "4", "--range", "0:5", "--sets", "2",
        "--seed", "3", "--predicate", "colorful-helly:1", "--out", out,
    ])
    capsys.readouterr()
    assert code == 0
    doc = json.loads(open(out).read())
    assert len(doc["families"]) == 2
    code, report = run(capsys, "colorful-helly", out, "--k", "1")
    assert code == 0


def test_gen_predicate_exhaustion_exits_one(tmp_path, capsys):
    code = run_command([
        "gen", "--d", "1", "--points", "4", "--range", "0:5", "--sets", "2",
        "--presence", "0", "--predicate", "k-rich:1:1", "--cap", "20",
    ])
    err = capsys.readouterr().err
    assert code == 1
    assert "no instance" in err


def test_the_parser_is_built_once_and_reused(tmp_path, monkeypatch, capsys):
    builds = []
    build = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: builds.append(1) or build())
    cli._parser.cache_clear()
    path = two_interval_instance(tmp_path)
    try:
        assert run_command(["nerve", path]) == 0
        assert run_command(["radon", path]) == 0
        assert run_command(["no-such-command"]) == 2
    finally:
        cli._parser.cache_clear()
    assert builds == [1]
    capsys.readouterr()


# ------------------------------------------------------------------- errors


def test_schema_error_exits_two_and_lenient_downgrades(tmp_path, capsys):
    doc = json.loads(open(two_interval_instance(tmp_path)).read())
    doc["comment"] = "hello"
    path = write(tmp_path, "odd.json", json.dumps(doc))
    code = run_command(["nerve", path])
    err = capsys.readouterr().err
    assert code == 2 and "comment" in err
    code = run_command(["nerve", path, "--lenient"])
    err = capsys.readouterr().err
    assert code == 0 and "warning" in err


def test_deeply_nested_json_exits_two(tmp_path, capsys):
    depth = 200_000
    path = write(tmp_path, "deep.json", "[" * depth + "]" * depth)
    assert run_command(["nerve", path]) == 2
    assert "nested too deeply" in capsys.readouterr().err


def test_guard_breach_exits_two(tmp_path, capsys):
    path = triple_instance(tmp_path)
    code = run_command(["nerve", path, "--guard", "2"])
    assert code == 2
    assert "guard" in capsys.readouterr().err.lower()


def test_helly_work_guard_breach_exits_two(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("DINTERVALS_GUARD_PQ_WORK", "3")
    code = run_command(["helly", triple_instance(tmp_path), "--m", "3"])
    assert code == 2
    assert "helly subset enumeration" in capsys.readouterr().err


def test_missing_file_exits_two(capsys):
    assert run_command(["nerve", "/nonexistent/x.json"]) == 2
    capsys.readouterr()


def test_usage_errors_exit_two(capsys):
    assert run_command(["no-such-command"]) == 2
    assert run_command(["helly"]) == 2  # missing file and --m
    capsys.readouterr()


def test_stdin_input(monkeypatch, capsys):
    doc = {
        "d": 1,
        "points": [["0", 1], ["1", 1]],
        "sets": [{"name": "A", "levels": [{"level": 1, "lo": "0", "hi": "1"}]}],
    }
    monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(doc)))
    code, report = run(capsys, "nerve", "-")
    assert code == 0 and report["statistics"]["faces"] == 2


# -------------------------------------------------------------- experiments


def test_experiment_runs_and_reports(capsys):
    code, report = run(capsys, "experiment", "--suite", "pierce",
                       "--trials", "4", "--seed", "9", "--d", "1,2")
    assert code == 0
    assert report["verdicts"]["duality_and_sandwich"] is True
    assert report["seed"] == 9


def test_experiment_reports_are_reproducible_outside_timing(tmp_path, capsys):
    a, b = str(tmp_path / "a.json"), str(tmp_path / "b.json")
    argv = ["experiment", "--suite", "helly", "--trials", "5", "--seed", "4"]
    assert run_command(argv + ["--out", a]) == 0
    assert run_command(argv + ["--out", b]) == 0
    capsys.readouterr()
    da, db = json.loads(open(a).read()), json.loads(open(b).read())
    ta, tb = da.pop("timing"), db.pop("timing")
    assert da == db
    assert set(ta) == {"seconds"} and set(tb) == {"seconds"}


def test_experiment_csv_has_a_row_per_trial(tmp_path, capsys):
    out = str(tmp_path / "rows.csv")
    code = run_command(["experiment", "--suite", "radon", "--trials", "3",
                        "--seed", "2", "--d", "1", "--format", "csv", "--out", out])
    capsys.readouterr()
    assert code == 0
    lines = open(out).read().strip().splitlines()
    assert len(lines) == 4  # header plus one line per trial


def test_experiment_radon_rejects_unsupported_d(capsys):
    assert run_command(["experiment", "--suite", "radon", "--d", "1,7"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "d from 1 to 6" in captured.err
    assert "randrange" not in captured.err


def test_experiment_rejects_trials_below_one(capsys):
    for trials in ("0", "-3"):
        assert run_command(["experiment", "--suite", "collapse", "--trials", trials]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "trials must be ≥ 1" in captured.err
