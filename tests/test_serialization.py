"""Instance files and reports: schema errors, round trips, CSV shape."""

import json
from fractions import Fraction

import pytest

from dintervals import (
    LevelInterval,
    Point,
    PointSet,
    Report,
    SchemaError,
    TraceSet,
    dump_instance,
    emit_report,
    jsonify,
    parse_instance,
    serialize_instance,
)
from dintervals import geometry, instances
from dintervals.rationals import parse_rational
from helpers import reference_parse_instance
from test_golden import _parse_documents, _parse_outcome


def minimal_doc() -> dict:
    return {
        "d": 1,
        "points": [["0", 1], ["1", 1]],
        "sets": [{"name": "A", "levels": [{"level": 1, "lo": "0", "hi": "1"}]}],
    }


# ----------------------------------------------------------------- parsing


def test_minimal_document_parses_to_one_trace():
    inst, warnings = parse_instance(minimal_doc())
    assert warnings == []
    assert inst.names == ["A"]
    assert set(inst.sets[0].points()) == {Point(Fraction(0), 1), Point(Fraction(1), 1)}


def test_parse_accepts_a_json_string():
    inst, _ = parse_instance(json.dumps(minimal_doc()))
    assert len(inst.sets) == 1


def test_parse_rejects_invalid_json_text():
    with pytest.raises(SchemaError) as err:
        parse_instance("{not json")
    assert err.value.path == "$"


def test_lo_above_hi_names_the_set_and_level():
    doc = minimal_doc()
    doc["sets"][0]["levels"][0].update(lo="2", hi="1")
    with pytest.raises(SchemaError) as err:
        parse_instance(doc)
    assert err.value.path == "$.sets[0].levels[0]"
    assert "'A'" in str(err.value) and "level 1" in str(err.value)


def test_unknown_fields_strict_vs_lenient():
    doc = minimal_doc()
    doc["extra"] = True
    with pytest.raises(SchemaError) as err:
        parse_instance(doc)
    assert err.value.path == "$" and "extra" in str(err.value)
    inst, warnings = parse_instance(doc, strict=False)
    assert len(inst.sets) == 1
    assert warnings and "extra" in warnings[0]


def test_unknown_nested_field_paths():
    doc = minimal_doc()
    doc["sets"][0]["color"] = "red"
    with pytest.raises(SchemaError) as err:
        parse_instance(doc)
    assert err.value.path == "$.sets[0]"


def test_float_coordinates_are_rejected():
    doc = minimal_doc()
    doc["points"][0][0] = 0.5
    with pytest.raises(SchemaError) as err:
        parse_instance(doc)
    assert "floating-point" in str(err.value)


def test_a_coordinate_of_no_known_type_is_refused():
    with pytest.raises(TypeError, match="cannot parse coordinate of type object"):
        parse_rational(object())


def test_bool_is_not_an_integer():
    doc = minimal_doc()
    doc["d"] = True
    with pytest.raises(SchemaError) as err:
        parse_instance(doc)
    assert err.value.path == "$.d"


def test_decimal_strings_parse_exactly():
    doc = {
        "d": 1,
        "points": [["0.25", 1], ["0.75", 1]],
        "sets": [{"name": "A", "levels": [{"level": 1, "lo": "0.25", "hi": "0.5"}]}],
    }
    inst, _ = parse_instance(doc)
    assert set(inst.sets[0].points()) == {Point(Fraction(1, 4), 1)}
    # canonical form re-renders quarters as fractions
    assert serialize_instance(inst)["points"][0][0] == "1/4"


def test_duplicate_points_and_levels_are_rejected():
    doc = minimal_doc()
    doc["points"].append(["0", 1])
    with pytest.raises(SchemaError):
        parse_instance(doc)
    doc = minimal_doc()
    doc["sets"][0]["levels"].append({"level": 1, "lo": "0", "hi": "0"})
    with pytest.raises(SchemaError) as err:
        parse_instance(doc)
    assert "duplicate level" in str(err.value)


def test_level_bounds_are_checked():
    doc = minimal_doc()
    doc["points"][0][1] = 2
    with pytest.raises(SchemaError) as err:
        parse_instance(doc)
    assert err.value.path == "$.points[0][1]"


def test_families_validate_member_indices():
    doc = minimal_doc()
    doc["families"] = [[0, 7]]
    with pytest.raises(SchemaError) as err:
        parse_instance(doc)
    assert err.value.path == "$.families[0][1]"


# (document, path, message) for each schema error of a document's shape
SCHEMA_REFUSALS = [
    ([], "$", "top level must be an object"),
    ({"d": 0, "points": [], "sets": []}, "$.d", "d must be ≥ 1"),
    ({"d": 1, "points": {}, "sets": []}, "$.points", "expected an array"),
    ({"d": 1, "points": [], "sets": {}}, "$.sets", "expected an array"),
    ({"d": 1, "points": [], "sets": [], "families": {}}, "$.families", "expected an array"),
    ({"d": 1, "points": [], "sets": ["A"]}, "$.sets[0]", "expected an object"),
    ({"d": 1, "points": [], "sets": [{"name": "A", "levels": [1]}]},
     "$.sets[0].levels[0]", "expected an object"),
    ({"d": 1, "points": [], "sets": [{"name": 1, "levels": []}]},
     "$.sets[0].name", "expected a string"),
    ({"d": 1, "points": [], "sets": [{"name": "A", "levels": {}}]},
     "$.sets[0].levels", "expected an array"),
    ({"d": 1, "points": [], "sets": [], "families": [0]},
     "$.families[0]", "expected an array of set indices"),
]


@pytest.mark.parametrize("document, path, message", SCHEMA_REFUSALS)
def test_each_schema_error_names_its_path(document, path, message):
    for parse in (parse_instance, reference_parse_instance):
        with pytest.raises(SchemaError) as err:
            parse(document)
        assert err.value.path == path
        assert str(err.value) == f"{path}: {message}"


def test_family_traces_groups_sets():
    doc = minimal_doc()
    doc["sets"].append({"name": "B", "levels": []})
    doc["families"] = [[0], [1, 0]]
    inst, _ = parse_instance(doc)
    groups = inst.family_traces()
    assert [len(g) for g in groups] == [1, 2]
    assert groups[1][1] == inst.sets[0]


def _coordinates(doc) -> list:
    """Every coordinate value written in a document."""
    values = [e[0] for e in doc.get("points", []) if isinstance(e, list) and e]
    for s in doc.get("sets", []):
        for piece in s.get("levels", []):
            values += [piece[end] for end in ("lo", "hi") if end in piece]
    return values


def test_parsing_goes_straight_to_runs(monkeypatch):
    # no public geometry constructor or check runs, and each distinct
    # string literal is parsed at most once
    cases = list(_parse_documents())
    expected = [_parse_outcome(doc, strict) for doc, strict in cases]

    def refuse(*args, **kwargs):
        raise AssertionError("the parse went through the public geometry")

    for cls in (PointSet, LevelInterval, TraceSet):
        monkeypatch.setattr(cls, "__post_init__", refuse)
    monkeypatch.setattr(geometry, "trace_of", refuse)
    calls = []
    as_coord = instances._as_coord
    monkeypatch.setattr(
        instances, "_as_coord", lambda value, path: calls.append(value) or as_coord(value, path)
    )
    for (doc, strict), want in zip(cases, expected):
        calls.clear()
        assert _parse_outcome(doc, strict) == want
        values = _coordinates(doc)
        literals = {v for v in values if isinstance(v, str)}
        assert len(calls) <= len(literals) + sum(not isinstance(v, str) for v in values)


# -------------------------------------------------------------- round trips


def test_serialize_parse_is_idempotent():
    inst, _ = parse_instance(minimal_doc())
    doc = serialize_instance(inst)
    inst2, _ = parse_instance(doc)
    assert serialize_instance(inst2) == doc
    assert dump_instance(inst) == dump_instance(inst2)


def test_serialization_canonicalizes_to_minimal_windows():
    doc = minimal_doc()
    doc["sets"][0]["levels"][0].update(lo="-100", hi="100")
    inst, _ = parse_instance(doc)
    got = serialize_instance(inst)["sets"][0]["levels"][0]
    assert got == {"level": 1, "lo": "0", "hi": "1"}


def test_empty_level_pieces_are_dropped_in_canonical_form():
    doc = minimal_doc()
    doc["sets"][0]["levels"][0].update(lo="1/3", hi="2/3")  # misses both points
    inst, _ = parse_instance(doc)
    assert serialize_instance(inst)["sets"][0]["levels"] == []


# ------------------------------------------------------------------ reports


def test_jsonify_renders_rationals_with_decimal_siblings():
    got = jsonify({"alpha": Fraction(3, 2), "count": Fraction(4, 2)})
    assert got == {"alpha": "3/2", "alpha_decimal": "1.5", "count": 2}


def test_jsonify_handles_points_and_sweep_values():
    from dintervals import LexValue

    assert jsonify(Point(Fraction(1, 2), 2)) == ["1/2", 2]
    assert jsonify(LexValue((None, Fraction(5)))) == ["-inf", "5"]


def test_report_timing_is_isolated_from_content():
    a = Report("demo", parameters={"n": 3}, verdicts={"ok": True})
    b = Report("demo", parameters={"n": 3}, verdicts={"ok": True})
    a.timing["seconds"] = 0.51
    b.timing["seconds"] = 99.9
    assert a.json_text(include_timing=False) == b.json_text(include_timing=False)
    assert a.json_text() != b.json_text()


def test_report_passed_requires_every_verdict():
    r = Report("demo", verdicts={"a": True, "b": False})
    assert not r.passed
    r.verdicts["b"] = True
    assert r.passed


def test_csv_keeps_first_seen_field_order_and_row_count():
    r = Report(
        "demo",
        rows=[
            {"trial": 0, "alpha": Fraction(1, 2), "ok": True},
            {"trial": 1, "beta": Fraction(2), "ok": False},
        ],
    )
    text = r.csv_text()
    lines = text.strip().splitlines()
    assert lines[0] == "trial,alpha,alpha_decimal,ok,beta"
    assert len(lines) == 3
    assert lines[1].startswith("0,1/2,0.5,True")


def test_emit_report_writes_files_and_rejects_unknown_formats(tmp_path):
    r = Report("demo", verdicts={"ok": True})
    out = tmp_path / "r.json"
    text = emit_report(r, "json", str(out))
    assert out.read_text() == text
    parsed = json.loads(text)
    assert parsed["command"] == "demo" and parsed["verdicts"] == {"ok": True}
    with pytest.raises(ValueError):
        emit_report(r, "yaml")
