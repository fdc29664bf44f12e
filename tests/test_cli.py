"""End-to-end command tests: exit codes, report content, determinism."""

import builtins
import io
import json
import re
import sys
from fractions import Fraction

import pytest

from dintervals import (
    Instance,
    PointSet,
    dump_instance,
    gen_helly_lower_bound,
    intersect_all,
    maxima_witness_subfamily,
    parse_instance,
)
from dintervals import cli, errors, experiments, generators
from dintervals.cli import run_command
from helpers import frames_of, p6
from test_serialization import SCHEMA_REFUSALS


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


@pytest.mark.parametrize(
    "command, header, line",
    [
        ("nerve", "file,sets,d,faces,dim,vertices", '3,2,7,1,"[1, 2, 3]"'),
        ("pierce",
         "file,n,d,sandwich,lp_certified,tau,nu,tau_star,tau_star_decimal,nu_star,nu_star_decimal",
         "3,2,True,True,2,1,3/2,1.5,3/2,1.5"),
    ],
)
def test_a_report_without_rows_is_one_csv_line(command, header, line, tmp_path, capsys):
    # parameters, verdicts and statistics, flattened in that order
    path = triple_instance(tmp_path)
    assert run_command([command, path, "--format", "csv"]) == 0
    assert capsys.readouterr().out.splitlines() == [header, f"{path},{line}"]


def test_dcollapse_oracle_is_a_query_either_way(tmp_path, capsys):
    path = triple_instance(tmp_path)
    code, report = run(capsys, "dcollapse-oracle", path, "--bound", "1")
    assert code == 0
    assert report["statistics"]["collapsible"] is False
    code, report = run(capsys, "dcollapse-oracle", path, "--bound", "2")
    assert code == 0
    assert report["statistics"]["collapsible"] is True
    assert report["witnesses"]["sequence"]


def test_dcollapse_oracle_bound_below_one_exits_two(tmp_path, capsys):
    assert run_command(["dcollapse-oracle", triple_instance(tmp_path), "--bound", "0"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: collapse bound must be ≥ 1\n"


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
    captured = capsys.readouterr()
    assert code == 1
    assert "misses a selected point" in captured.err
    # the report fails its one verdict and carries the violation
    report = json.loads(captured.out)
    assert report["verdicts"] == {"no_violation": False}
    violation = "a member of the claim family misses a selected point"
    assert report["witnesses"]["violation"] == violation


def test_colorful_helly_without_families_exits_two(tmp_path, capsys):
    doc = {"d": 1, "points": [["0", 1]], "sets": [], "families": []}
    path = write(tmp_path, "none.json", json.dumps(doc))
    for extra in ([], ["--rotate", "1"]):
        assert run_command(["colorful-helly", path, "--k", "1", *extra]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error: families must be nonempty" in captured.err


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


def two_family_instance(tmp_path, second) -> str:
    """Family [0,1], [2,3] and family ``second``, windows on one level."""
    windows = [("0", "1"), ("2", "3"), *second]
    doc = {
        "d": 1,
        "points": [[str(c), 1] for c in range(6)],
        "sets": [
            {"name": f"S{j + 1}", "levels": [{"level": 1, "lo": lo, "hi": hi}]}
            for j, (lo, hi) in enumerate(windows)
        ],
        "families": [[0, 1], [2, 3]],
    }
    return write(tmp_path, "two-families.json", json.dumps(doc))


MEETING, APART = [("1", "2"), ("4", "5")], [("4", "4"), ("5", "5")]


@pytest.mark.parametrize(
    "second, kind, q, counterexample",
    [
        (MEETING, "colorful-first", "2", None),
        (APART, "colorful-first", "2", [[0, 1], [0, 1]]),
        (MEETING, "colorful-second", "1", None),
        (MEETING, "colorful-second", "2", [0, 1]),
    ],
)
def test_pq_check_colorful_kinds_read_the_families(
    second, kind, q, counterexample, tmp_path, capsys
):
    path = two_family_instance(tmp_path, second)
    code, report = run(capsys, "pq-check", path, "--p", "2", "--q", q, "--kind", kind)
    assert report["parameters"]["kind"] == kind
    assert code == (0 if counterexample is None else 1)
    assert report["witnesses"].get("counterexample") == counterexample


@pytest.mark.parametrize("argv", [["colorful-helly", "--k", "1"], ["cfh"]])
def test_colorful_commands_refuse_a_file_without_families(argv, tmp_path, capsys):
    # a file without ``families`` holds one family; d = 1 needs two
    command, *flags = argv
    assert run_command([command, two_interval_instance(tmp_path), *flags]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: expected 2 families, got 1\n"


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


def test_gen_without_out_writes_the_instance_to_stdout(tmp_path, capsys):
    out = str(tmp_path / "a.json")
    argv = ["gen", "--d", "2", "--points", "3,4", "--range", "0:6", "--sets", "3"]
    assert run_command(argv) == 0
    text = capsys.readouterr().out
    assert run_command(argv + ["--out", out]) == 0
    assert capsys.readouterr().out == f"wrote {out} after 1 draw(s)\n"
    assert text == open(out).read()
    assert len(parse_instance(text)[0].sets) == 3


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


def test_gen_draw_cap_below_one_exits_two(capsys):
    for cap in ("0", "-1"):
        code = run_command([
            "gen", "--d", "1", "--points", "4", "--range", "0:5", "--sets", "2",
            "--predicate", "colorful-helly:1", "--cap", cap,
        ])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "error: draw cap must be ≥ 1" in captured.err


@pytest.mark.parametrize(
    "predicate, message",
    [
        ("colorful-helly:0", "k must lie in [1, 1]"),
        ("colorful-helly:2", "k must lie in [1, 1]"),
        ("k-rich:0:1/2", "k must lie in [1, 1]"),
        ("k-rich:1:-7", "predicate k-intersect-rich needs alpha ≥ 0, spec has -7"),
        ("pq:3:2:bogus", "unknown kind 'bogus'"),
        ("pq:2:3", "need p ≥ q ≥ 1"),
        ("pq:0:0", "need p ≥ q ≥ 1"),
    ],
)
def test_gen_rejects_bad_predicate_parameters_before_drawing(
    predicate, message, monkeypatch, capsys
):
    def no_draw(*args):
        raise AssertionError("a draw was made")

    monkeypatch.setattr(generators, "_draw", no_draw)
    code = run_command([
        "gen", "--d", "1", "--points", "4", "--range", "0:5", "--sets", "2",
        "--predicate", predicate,
    ])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert f"error: {message}" in captured.err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["gen", "--d", "1", "--range", "5"], "--range expects LO:HI with integer bounds"),
        (["gen", "--d", "1", "--range", "1:2:3"], "--range expects LO:HI with integer bounds"),
        (["gen", "--d", "1", "--range", "a:b"], "--range expects LO:HI with integer bounds"),
        (["gen", "--d", "2", "--points", "3,x"],
         "--points expects a count or a comma list of integer counts"),
        (["gen", "--d", "2", "--predicate", "colorful-helly:x"],
         "--predicate expects colorful-helly:K with an integer K"),
        (["gen", "--d", "2", "--predicate", "pq:2:x"],
         "--predicate expects pq:P:Q[:KIND] with integers P and Q"),
        (["gen", "--d", "2", "--predicate", "k-rich:x:1/2"],
         "--predicate expects k-rich:K:ALPHA with an integer K"),
        (["experiment", "--suite", "pq", "--d", "1,,2"],
         "--d expects a comma list of integer levels, e.g. 1,2,3"),
        (["gen", "--d", "2", "--predicate", "k-rich:1:x"],
         "--predicate expects k-rich:K:ALPHA with a rational ALPHA"),
        (["gen", "--d", "2", "--presence", "x"],
         "--presence expects a rational probability, e.g. 1/2"),
        (["gen", "--d", "2", "--predicate", "k-rich:1"],
         "--predicate expects k-rich:K:ALPHA with an integer K"),
        (["gen", "--d", "2", "--predicate", "bogus:1"], "unknown predicate 'bogus'"),
        (["gen", "--d", "3", "--points", "3,3"], "points spec needs 1 or 3 counts"),
    ],
)
def test_malformed_flag_values_name_the_flag_and_its_form(argv, message, capsys):
    code = run_command(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


@pytest.mark.parametrize(
    "args, message",
    [
        # every family must be nonempty
        (["--d", "1", "--sets", "0", "--predicate", "colorful-helly:1"],
         "colorful-helly-property needs at least 1 sets per family, spec has 0"),
        # α needs 2d−k+1 sets to choose from
        (["--d", "2", "--sets", "1", "--predicate", "k-rich:1:1/2"],
         "k-intersect-rich needs at least 4 sets per family, spec has 1"),
        (["--d", "2", "--sets", "2", "--predicate", "k-rich:2:1/2"],
         "k-intersect-rich needs at least 3 sets per family, spec has 2"),
        # α is a share of the subsets, so none exceeds 1
        (["--d", "2", "--sets", "4", "--predicate", "k-rich:1:5/4"],
         "k-intersect-rich needs alpha ≤ 1, spec has 5/4"),
    ],
)
def test_gen_rejects_a_predicate_no_draw_can_satisfy(args, message, monkeypatch, capsys):
    def no_draw(*args):
        raise AssertionError("a draw was made")

    monkeypatch.setattr(generators, "_draw", no_draw)
    code = run_command(["gen", "--points", "3", "--range", "0:5", *args])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert f"error: predicate {message}" in captured.err


def test_gen_pq_predicate_on_too_few_sets_exits_two(capsys):
    # every draw has 2 sets, so none can have 3 to choose from
    code = run_command([
        "gen", "--d", "1", "--points", "4", "--range", "0:5", "--sets", "2",
        "--predicate", "pq:3:2",
    ])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "error: family has 2 < p = 3 members" in captured.err


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


ONE_SET = {"d": 1, "points": [["0", 1]], "sets": [{"name": "A", "levels": []}]}


@pytest.mark.parametrize(
    "argv, document, message",
    [(["nerve"], doc, f"{path}: {message}") for doc, path, message in SCHEMA_REFUSALS]
    + [
        (["gen", "--d", "0"], None, "d must be ≥ 1"),
        (["gen", "--d", "2", "--points", "1,-1"], None, "point counts must be ≥ 0"),
        (["gen", "--d", "1", "--sets", "-1"], None, "n_sets ≥ 0 and n_families ≥ 1 required"),
        (["helly", "--m", "1", "--k", "0"], ONE_SET, "k must lie in [1, 1]"),
        (["frac-helly", "--k", "2"], ONE_SET, "k must lie in [1, 1]"),
        (["colorful-helly", "--k", "2"], ONE_SET, "k must lie in [1, 1]"),
    ],
)
def test_each_refusal_exits_two_with_its_message(argv, document, message, tmp_path, capsys):
    # the schema errors of a file's shape, GenSpec's refusals, and the k
    # range of the three Helly checks; a document goes in as the file
    if document is not None:
        argv = [argv[0], write(tmp_path, "doc.json", json.dumps(document)), *argv[1:]]
    assert run_command(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_deeply_nested_json_exits_two(tmp_path, capsys):
    depth = 200_000
    path = write(tmp_path, "deep.json", "[" * depth + "]" * depth)
    assert run_command(["nerve", path]) == 2
    assert "nested too deeply" in capsys.readouterr().err


def test_guard_breach_exits_two(tmp_path, capsys, monkeypatch):
    path = triple_instance(tmp_path)
    monkeypatch.setenv("DINTERVALS_GUARD_NERVE", "2")
    code = run_command(["nerve", path])
    assert code == 2
    assert "nerve family size: size 3 exceeds guard limit 2" in capsys.readouterr().err


def test_nerve_face_budget_breach_exits_two(tmp_path, capsys):
    piece = [{"level": 1, "lo": "0", "hi": "0"}, {"level": 2, "lo": "0", "hi": "0"}]
    doc = {
        "d": 2,
        "points": [["0", 1], ["0", 2]],
        "sets": [{"name": f"S{i}", "levels": piece} for i in range(16)],
    }
    path = write(tmp_path, "dense.json", json.dumps(doc))
    assert run_command(["nerve", path]) == 2
    assert "nerve face count" in capsys.readouterr().err


def test_the_face_guard_variable_bounds_the_walk_and_the_search(
    tmp_path, monkeypatch, capsys
):
    # the hollow triangle's nerve has 7 faces, the empty one included
    path = triple_instance(tmp_path)
    for limit, code in (("3", 2), ("6", 2), ("7", 0)):
        monkeypatch.setenv("DINTERVALS_GUARD_COLLAPSE_FACES", limit)
        assert run_command(["nerve", path]) == code
        assert run_command(["dcollapse-oracle", path, "--bound", "2"]) == code
        err = capsys.readouterr().err
        if code == 2:
            message = f"nerve face count: size {int(limit) + 1} exceeds guard limit {limit}"
            assert err.count(message) == 2
    assert run_command(["dcollapse-oracle", path, "--bound", "2", "--face-guard", "9"]) == 2
    assert "unrecognized arguments: --face-guard" in capsys.readouterr().err


def test_frac_helly_subfamily_walk_breach_exits_two(tmp_path, capsys):
    # 4 sets covering 100 points on each of 3 levels: 3·10^6 cell tuples at k = 3
    full = [{"level": lvl, "lo": "0", "hi": "99"} for lvl in (1, 2, 3)]
    doc = {
        "d": 3,
        "points": [[str(c), lvl] for lvl in (1, 2, 3) for c in range(100)],
        "sets": [{"name": f"S{i}", "levels": full} for i in range(4)],
    }
    path = write(tmp_path, "full.json", json.dumps(doc))
    assert run_command(["frac-helly", path, "--k", "3"]) == 2
    assert "k-intersecting subfamily search" in capsys.readouterr().err


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


def test_experiment_radon_rejects_unsupported_d(monkeypatch, capsys):
    # so does frac-helly, whose trials draw 2d to 9 sets, and
    # colorful-helly, whose (6, 6) cell finds too few samples; before any
    # trial is drawn
    def no_trial(*args):
        raise AssertionError("a trial was drawn")

    monkeypatch.setattr(experiments, "_trials", no_trial)
    for suite, d, message in (
        ("radon", "1,7", "the radon suite supports d from 1 to 6"),
        ("frac-helly", "5", "the frac-helly suite supports d from 1 to 4"),
        ("colorful-helly", "6", "the colorful-helly suite supports d from 1 to 5"),
    ):
        assert run_command(["experiment", "--suite", suite, "--d", d]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"


@pytest.mark.parametrize(
    "guard, limit, suite, message",
    [
        ("PQ_WORK", "5", "radon", "radon subset enumeration: size 9 exceeds guard limit 5"),
        ("PIERCE_SETS", "2", "pierce", "family size: size 3 exceeds guard limit 2"),
        ("PQ_WORK", "5", "colorful-helly",
         "colorful tuple enumeration: size 8 exceeds guard limit 5"),
    ],
)
def test_a_guard_overrun_inside_a_suite_exits_two(
    guard, limit, suite, message, monkeypatch, capsys
):
    # an overrun is a limit of the run, never a failed trial
    monkeypatch.setenv(f"DINTERVALS_GUARD_{guard}", limit)
    assert run_command(["experiment", "--suite", suite, "--trials", "2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


@pytest.mark.parametrize("suite", sorted(cli.SUITES))
def test_experiment_rejects_d_below_one(suite, capsys):
    for d in ("0", "1,0", "-1"):
        assert run_command(["experiment", "--suite", suite, "--d", d]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error: d must be ≥ 1" in captured.err


def test_experiment_rejects_trials_below_one(capsys):
    for trials in ("0", "-3"):
        assert run_command(["experiment", "--suite", "collapse", "--trials", trials]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "trials must be ≥ 1" in captured.err


def test_an_unknown_suite_is_refused_with_the_known_ones():
    with pytest.raises(ValueError) as info:
        experiments.run_suite("nope")
    assert str(info.value) == f"unknown suite 'nope'; choose from {sorted(experiments.SUITES)}"


# planted faults, one per suite check: each check turns a broken step
# before it into a failed trial, never into a pass


def test_the_collapse_suite_fails_a_replay_that_stops_short(monkeypatch):
    from dintervals.complexes import CollapseSequence

    monkeypatch.setattr(CollapseSequence, "replay", lambda seq: seq.initial)
    report = experiments.collapse_suite(trials=2)
    assert report.statistics["failures"] >= 1
    assert report.witnesses["first_failure"]["error"] == "replay did not reach the empty complex"
    assert not report.verdicts["all_sweeps_succeed"]


def test_the_radon_suite_fails_a_missing_partition(monkeypatch):
    monkeypatch.setattr(experiments, "radon_partition", lambda ground, subset: None)
    report = experiments.radon_suite(trials=1, d_choices=(1,))
    assert report.statistics["failures"] == 1
    assert report.witnesses["first_failure"]["error"] == "a (2d+1)-subset lacks a verified partition"
    assert not report.verdicts["radon_number_everywhere"]


def test_the_radon_suite_fails_a_wrong_radon_number(monkeypatch):
    monkeypatch.setattr(experiments, "radon_number_bruteforce", lambda ground, cap: cap - 1)
    report = experiments.radon_suite(trials=1, d_choices=(2,))
    assert report.witnesses["first_failure"]["error"] == "brute-force number 4 != 5"
    assert not report.verdicts["radon_number_everywhere"]


def test_the_pierce_suite_fails_a_blow_up_below_the_pigeonhole(monkeypatch):
    monkeypatch.setattr(experiments, "max_point_cover", lambda family: (0, None))
    report = experiments.pierce_suite(trials=4)
    assert report.statistics["failures"] >= 1
    first = report.witnesses["first_failure"]
    assert first["error"] == "blow-up cover below the fractional pigeonhole"
    assert not report.verdicts["duality_and_sandwich"]


def test_the_witness_suite_fails_when_brute_force_finds_no_witness(monkeypatch):
    # every sweep key differs from every other, so no subfamily matches
    monkeypatch.setattr(experiments, "_sweep_key", lambda runs: object())
    report = experiments.witness_suite(trials=1)
    assert report.statistics["failures"] == 1
    first = report.witnesses["first_failure"]
    assert first["error"] == "brute force finds no witness at all"
    assert not report.verdicts["witness_contracts"]


@pytest.mark.parametrize(
    "d_choices", [(1,), (2,), (3,), (4,), (1, 2, 3)], ids=lambda ds: "d" + "".join(map(str, ds))
)
@pytest.mark.parametrize("seed, trials", [(3, 5), (11, 12), (29, 20)])
def test_the_witness_suite_refuses_exactly_the_draws_a_whole_family_refuses(
    seed, trials, d_choices
):
    # the reference builds every set of a draw, then tests the whole
    # family's joint; the suite stops at the first prefix below k levels
    rows, attempts = [], 0
    for attempt, rng, d in experiments._trials(seed, "witness", trials * 60, d_choices):
        attempts += 1
        k = rng.randrange(1, d + 1)
        spec = experiments._random_spec(
            rng, seed, attempt, d, n_lo=2, n_hi=7, pts_lo=2, pts_hi=6,
            full_presence=True,
        )
        _, family = generators.gen_family(spec)
        if intersect_all(family)[1] < k:
            continue
        size = len(maxima_witness_subfamily(family, k))
        rows.append({"attempt": attempt, "d": d, "k": k, "n": len(family), "size": size})
        if len(rows) == trials:
            break
    report = experiments.witness_suite(trials=trials, seed=seed, d_choices=d_choices)
    fields = ("attempt", "d", "k", "n", "size")
    assert [{f: row[f] for f in fields} for row in report.rows] == rows
    assert report.statistics["attempts"] == attempts


def test_the_witness_suite_builds_only_the_sets_that_decide_each_draw():
    report, built, _ = frames_of("build", lambda: experiments.run_suite("maxima-witness"))
    # every set of every draw would be 10,526 builds
    assert built == 4_979
    assert report.statistics["attempts"] == 2_324
    assert report.statistics["found"] == 300


def test_the_oracle_suite_counts_a_witness_that_fails_its_replay(monkeypatch):
    # the sweep checks its own replay; only the oracle's witness is downgraded
    from dintervals.complexes import CollapseSequence

    monkeypatch.setattr(CollapseSequence, "replays_to_empty", lambda seq: False)
    report = experiments.oracle_suite(trials=3)
    assert report.statistics["disagreements"] == 3
    assert all(row["sweep_ok"] and not row["oracle"] for row in report.rows)
    assert not report.verdicts["oracle_agrees_with_sweep"]


# ---------------------------------------------------------- one report path


@pytest.mark.parametrize(
    "make, argv, code",
    [
        (two_interval_instance, ["collapse"], 0),
        (triple_instance, ["nerve"], 0),
        (triple_instance, ["dcollapse-oracle", "--bound", "1"], 0),
        (triple_instance, ["dcollapse-oracle", "--bound", "2"], 0),
        (two_interval_instance, ["radon"], 0),
        (lower_bound_instance, ["helly", "--m", "3"], 1),
        (lower_bound_instance, ["helly", "--m", "4"], 0),
        (colorful_pair_instance, ["colorful-helly", "--k", "1"], 0),
        (lower_bound_instance, ["frac-helly", "--k", "1"], 0),
        (colorful_pair_instance, ["cfh"], 0),
        (triple_instance, ["pierce"], 0),
        (lower_bound_instance, ["pq-check", "--p", "4", "--q", "3"], 0),
        (lower_bound_instance, ["pq-check", "--p", "4", "--q", "4"], 1),
        (None, ["experiment", "--suite", "helly", "--trials", "3"], 0),
    ],
)
def test_the_exit_code_is_read_off_the_verdicts(make, argv, code, tmp_path, capsys):
    # 0 exactly when every verdict in the printed report holds; a query
    # such as dcollapse-oracle has none
    command, *flags = argv
    files = [] if make is None else [make(tmp_path)]
    got, report = run(capsys, command, *files, *flags)
    assert report["command"] == command
    assert got == (0 if all(report["verdicts"].values()) else 1) == code


# ------------------------------------------------------------ exit contract

CONTRACT_VALID = {
    "d": 1,
    "points": [["0", 1], ["1", 1], ["2", 1]],
    "sets": [
        {"name": "A", "levels": [{"level": 1, "lo": "0", "hi": "1"}]},
        {"name": "B", "levels": [{"level": 1, "lo": "1", "hi": "2"}]},
        {"name": "C", "levels": [{"level": 1, "lo": "0", "hi": "2"}]},
    ],
    "families": [[0, 1], [1, 2]],
}
CONTRACT_DOCS = {
    "valid": CONTRACT_VALID,
    "no-points": {**CONTRACT_VALID, "points": []},
    "no-sets": {"d": 1, "points": CONTRACT_VALID["points"], "sets": []},
    "empty-set": {
        **CONTRACT_VALID, "sets": [{"name": "E", "levels": []}, *CONTRACT_VALID["sets"][1:]]
    },
    "empty-group": {**CONTRACT_VALID, "families": [[0, 1], []]},
}
FILE = "<file>"
# per file command: a valid argv after the file, and its int flags
CONTRACT_FILE_COMMANDS = {
    "nerve": ([], ()),
    "collapse": ([], ()),
    "dcollapse-oracle": (["--bound", "2"], ("--bound",)),
    "radon": ([], ("--cap",)),
    "helly": (["--m", "2"], ("--m", "--k")),
    "colorful-helly": (["--k", "1"], ("--k", "--rotate")),
    "frac-helly": ([], ("--k",)),
    "cfh": ([], ()),
    "pierce": ([], ()),
    "pq-check": (["--p", "2", "--q", "2"], ("--p", "--q")),
}
CONTRACT_GEN = [
    "gen", "--d", "1", "--points", "3", "--range", "0:4", "--sets", "2",
    "--predicate", "colorful-helly:1", "--cap", "50",
]
CONTRACT_EXPERIMENT = ["experiment", "--suite", "maxima-witness", "--trials", "2"]
BAD_INTS = ("0", "-1", "x", "")
BAD_STRINGS = [
    (CONTRACT_GEN, "--presence", ("0", "-1", "x", "1/0", "")),
    (CONTRACT_GEN, "--predicate", (
        "bogus", "colorful-helly", "colorful-helly:x", "colorful-helly:0", "pq:2",
        "pq:2:2:bogus", "pq:1:2", "k-rich:1", "k-rich:1:x", "k-rich:1:-1", "k-rich:1:2",
    )),
    (CONTRACT_GEN, "--range", ("5", "4:0", "a:b", "1:2:3", "", "-3:-1")),
    (CONTRACT_GEN, "--points", ("", "0", "-1", "x", "3,3")),
    (CONTRACT_EXPERIMENT, "--d", ("", "0", "-1", "x", "1,,2", "9")),
]
EXCEPTION_NAMES = {
    name
    for module in (builtins, errors)
    for name, value in vars(module).items()
    if isinstance(value, type) and issubclass(value, BaseException)
}


def _with(argv: list, flag: str, value: str) -> list:
    """The argv with the flag set to the value, replaced or appended."""
    if flag in argv:
        i = argv.index(flag)
        return [*argv[: i + 1], value, *argv[i + 2 :]]
    return [*argv, flag, value]


def _contract_cases():
    def case(argv, doc="valid"):
        shown = " ".join(repr(a) if not a else a for a in argv)
        return pytest.param(argv, doc, id=f"{shown} [{doc or 'missing file'}]")

    for command, (flags, ints) in CONTRACT_FILE_COMMANDS.items():
        for doc in [*CONTRACT_DOCS, None]:
            yield case([command, FILE, *flags], doc)
        for flag in ints:
            for value in BAD_INTS:
                yield case([command, FILE, *_with(flags, flag, value)])
    gen_ints = ("--d", "--sets", "--max-width", "--seed", "--families", "--cap")
    for base, ints in ((CONTRACT_GEN, gen_ints), (CONTRACT_EXPERIMENT, ("--trials", "--seed"))):
        for flag in ints:
            for value in BAD_INTS:
                yield case(_with(base, flag, value))
    for base, flag, values in BAD_STRINGS:
        for value in values:
            yield case(_with(base, flag, value))


@pytest.mark.parametrize("argv, doc", list(_contract_cases()))
def test_every_argument_keeps_the_exit_contract(argv, doc, tmp_path, monkeypatch, capsys):
    # 0 or 1 prints a JSON report (gen: an instance), 2 one error line
    # that names no exception type; a low work guard keeps walks short
    monkeypatch.setenv("DINTERVALS_GUARD_PQ_WORK", "200")
    path = tmp_path / "instance.json"
    if doc is not None:
        path.write_text(json.dumps(CONTRACT_DOCS[doc]))
    code = run_command([str(path) if a == FILE else a for a in argv])
    out, err = capsys.readouterr()
    assert code in (0, 1, 2)
    if code == 2:
        last = err.splitlines()[-1]
        assert "error:" in last
        assert not EXCEPTION_NAMES & set(re.findall(r"\w+", last))
    elif argv[0] == "gen" and code == 1:
        # a draw cap run out writes no instance, only the count of draws
        assert out == "" and "no instance" in err
    else:
        json.loads(out)
