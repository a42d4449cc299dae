"""Sweep, Pareto filtering, and table round trips."""

import json
import re
from dataclasses import replace
from importlib import resources

import jsonschema
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from piip import explorer, harness
from piip.config import ConfigError, ParseError, ValidationError, preset

RNG = np.random.default_rng(550)

SPEC_TEXT = """\
[sweep]
base = piip-tiny-test
resolutions.1 = 16, 32
resolutions.2 = 32:81:16
resolutions.3 = 64, 96
"""


def random_table(rng, n):
    rows = []
    for i in range(n):
        rows.append(
            {
                "config_id": f"r{i}",
                "flops": float(rng.integers(0, 12)),  # narrow range forces ties
                "acc": float(np.round(rng.random(), 2)),
            }
        )
    return rows


def test_pareto_matches_quadratic_oracle():
    for trial in range(100):
        rows = random_table(np.random.default_rng(trial), int(RNG.integers(1, 40)))
        fast = explorer.pareto_front(rows, "flops", "acc")
        slow = harness.pareto_oracle(rows, "flops", "acc")
        assert [id(r) for r in fast] == [id(r) for r in slow], f"trial {trial}"


def test_pareto_keeps_duplicate_optima():
    rows = [
        {"config_id": "a", "flops": 1.0, "acc": 0.5},
        {"config_id": "b", "flops": 1.0, "acc": 0.5},
        {"config_id": "c", "flops": 2.0, "acc": 0.4},
    ]
    front = explorer.pareto_front(rows, "flops", "acc")
    assert [r["config_id"] for r in front] == ["a", "b"]


@pytest.mark.parametrize("column, row", [("flops", 1), ("acc", 0)])
def test_pareto_nan_cells_raise_in_both_paths(column, row):
    rows = [
        {"config_id": "r0", "flops": 1.0, "acc": 0.3},
        {"config_id": "r1", "flops": 2.0, "acc": 0.5},
        {"config_id": "r2", "flops": 0.5, "acc": 0.4},
    ]
    rows[row][column] = float("nan")
    for path in (explorer.pareto_front, harness.pareto_oracle):
        with pytest.raises(explorer.NaNCellError, match=f"'{column}' is NaN in table row {row}"):
            path(rows, "flops", "acc")


@pytest.mark.parametrize("cell", ["abc", "", [32, 64], True],
                         ids=["abc", "empty", "resolution-list", "boolean"])
def test_pareto_non_numeric_cells_raise_in_both_paths(cell):
    # used to raise float()'s own error, which names neither column nor row
    rows = [{"flops": 1.0, "acc": 0.3}, {"flops": cell, "acc": 0.5}]
    for path in (explorer.pareto_front, harness.pareto_oracle):
        message = f"'flops' is not a number in table row 1: {cell!r}"
        with pytest.raises(ValueError, match=re.escape(message)):
            path(rows, "flops", "acc")


def test_pareto_missing_column():
    rows = [{"flops": 1.0}]
    with pytest.raises(ValueError, match="'acc'"):
        explorer.pareto_front(rows, "flops", "acc")


def test_parse_sweep_spec():
    spec = explorer.parse_sweep_spec(SPEC_TEXT)
    assert spec.resolutions == ((16, 32), (32, 48, 64, 80), (64, 96))
    assert spec.budget_gflops is None
    assert len(spec.base.branches) == 3


def test_parse_sweep_spec_errors():
    with pytest.raises(ParseError, match="exactly one"):
        explorer.parse_sweep_spec("[other]\nbase = piip-tiny-test\n")
    with pytest.raises(ParseError, match="missing required key"):
        explorer.parse_sweep_spec("[sweep]\nresolutions.1 = 16\n")
    with pytest.raises(ParseError, match="unknown key"):
        explorer.parse_sweep_spec("[sweep]\nbase = piip-tiny-test\nbogus = 1\n")
    with pytest.raises(ParseError, match="out of range"):
        explorer.parse_sweep_spec("[sweep]\nbase = piip-tiny-test\nresolutions.7 = 16\n")
    with pytest.raises(ParseError, match="step must be positive"):
        explorer.parse_sweep_spec(
            "[sweep]\nbase = piip-tiny-test\nresolutions.1 = 32:16:0\n"
        )
    with pytest.raises(ValidationError, match="patch_size"):
        explorer.parse_sweep_spec("[sweep]\nbase = piip-tiny-test\nresolutions.1 = 20\n")
    with pytest.raises(ParseError, match="budget_gflops"):
        explorer.parse_sweep_spec("[sweep]\nbase = piip-tiny-test\nbudget_gflops = abc\n")
    # a range is expanded in full, so its length is bounded before it is expanded
    stop = 16 * (explorer.MAX_RANGE_VALUES + 1)
    spec = explorer.parse_sweep_spec(
        f"[sweep]\nbase = piip-tiny-test\nresolutions.3 = 16:{stop}:16\n"
    )
    assert len(spec.resolutions[2]) == explorer.MAX_RANGE_VALUES
    for stop, count in ((16000000064, 10**9), (16 * 10**30 + 64, 10**30)):
        with pytest.raises(ParseError, match=rf"resolutions.3: range .* has {count} values"):
            explorer.parse_sweep_spec(
                f"[sweep]\nbase = piip-tiny-test\nresolutions.3 = 64:{stop}:16\n"
            )
    # "²" is a digit to str.isdigit but not to int(), which used to raise a bare ValueError
    for key in ("resolutions.x", "resolutions.", "resolutions.-1", "resolutions.²"):
        with pytest.raises(ParseError, match="resolutions.<N>"):
            explorer.parse_sweep_spec(f"[sweep]\nbase = piip-tiny-test\n{key} = 16\n")
    # resolutions.01 used to replace resolutions.1 without a word
    with pytest.raises(ParseError, match=r"'resolutions.01' repeats 'resolutions.1'"):
        explorer.parse_sweep_spec(
            "[sweep]\nbase = piip-tiny-test\nresolutions.1 = 16\nresolutions.01 = 32\n"
        )


SPEC_VALUES = st.one_of(
    st.text(max_size=12),
    st.text("0123456789-+,. eaninf", max_size=12),
    st.lists(st.integers(-64, 600), min_size=1, max_size=4).map(lambda v: ", ".join(map(str, v))),
    st.tuples(st.integers(-64, 600), st.integers(-64, 600), st.integers(-8, 64)).map(
        lambda t: "{}:{}:{}".format(*t)
    ),
)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(
    budget=st.one_of(st.none(), SPEC_VALUES),
    resolutions=st.dictionaries(st.integers(0, 4), SPEC_VALUES, max_size=4),
)
def test_sweep_spec_parses_or_raises_config_error(budget, resolutions):
    lines = ["[sweep]", "base = piip-tiny-test"]
    if budget is not None:
        lines.append(f"budget_gflops = {budget}")
    lines += [f"resolutions.{n} = {text}" for n, text in resolutions.items()]
    try:
        spec = explorer.parse_sweep_spec("\n".join(lines) + "\n")
    except ConfigError:
        return
    assert spec.base == preset("piip-tiny-test")
    for branch, values in zip(spec.base.branches, spec.resolutions, strict=True):
        assert values and all(r > 0 and r % branch.patch_size == 0 for r in values)
    assert spec.budget_gflops is None or isinstance(spec.budget_gflops, float)


def test_sweep_drops_descending_combos():
    spec = explorer.parse_sweep_spec(SPEC_TEXT)
    rows = explorer.sweep(spec)
    ids = [r["config_id"] for r in rows]
    assert "r32-32-64" in ids
    assert all(
        res[0] <= res[1] <= res[2] for res in (r["resolutions"] for r in rows)
    )
    # 2 * 4 * 2 = 16 raw combos, minus the descending ones
    assert 0 < len(rows) < 16


def test_sweep_single_point():
    text = "[sweep]\nbase = piip-tiny-test\n"
    rows = explorer.sweep(explorer.parse_sweep_spec(text))
    assert len(rows) == 1
    assert rows[0]["config_id"] == "r16-32-64"
    assert rows[0]["params"] == 91_770
    assert rows[0]["flops"] == 304_304
    assert rows[0]["within_budget"] is True


def test_sweep_budget_flags_rows():
    spec = explorer.parse_sweep_spec(SPEC_TEXT)
    rows = explorer.sweep(replace(spec, budget_gflops=0.5e-3))  # 500k MACs
    assert any(r["within_budget"] for r in rows)
    assert any(not r["within_budget"] for r in rows)
    for r in rows:
        assert r["within_budget"] == (r["flops"] <= 0.5e-3 * 1e9)
    assert len(rows) == len(explorer.sweep(spec))  # flagged, never dropped


def test_nan_budget_raises():
    spec = explorer.parse_sweep_spec(SPEC_TEXT + "budget_gflops = nan\n")
    with pytest.raises(ParseError, match="sweep: budget_gflops must be a number, got nan"):
        explorer.sweep(spec)


def test_sweep_all_descending_raises():
    spec = explorer.parse_sweep_spec(
        "[sweep]\nbase = piip-tiny-test\nresolutions.1 = 96\nresolutions.3 = 64\n"
    )
    # branch2 stays at 32 < 96, so every combo is out of order
    with pytest.raises(ValidationError, match="no rows"):
        explorer.sweep(spec)


def test_sweep_flops_monotone_per_branch():
    spec = explorer.parse_sweep_spec(
        "[sweep]\nbase = piip-tiny-test\nresolutions.2 = 32, 48, 64\n"
    )
    rows = explorer.sweep(spec)
    flops = [r["flops"] for r in rows]
    assert flops == sorted(flops)
    assert len(set(flops)) == len(flops)


def test_csv_round_trip_exact():
    spec = explorer.parse_sweep_spec(SPEC_TEXT)
    rows = explorer.sweep(replace(spec, budget_gflops=0.4e-3))
    text = explorer.render_csv(rows)
    assert text == explorer.render_csv(rows)  # deterministic
    back = explorer.read_table(text)[1]
    assert back == rows


def test_csv_cell_formats():
    rows = [
        {
            "config_id": "r16-32",
            "resolutions": [16, 32],
            "params": 10,
            "flops": 1.5,
            "within_budget": False,
        }
    ]
    text = explorer.render_csv(rows)
    lines = text.split("\n")
    assert lines[0] == "config_id,resolutions,params,flops,within_budget"
    assert lines[1] == "r16-32,16x32,10,1.5,false"
    assert explorer.read_table(text)[1] == rows


def reads_as_value(text):
    """Whether a text cell reads back as a boolean, a number or a size list."""
    if text in ("true", "false") or re.fullmatch(r"[0-9]+(x[0-9]+)*x?", text):
        return True
    try:
        float(text)
    except ValueError:
        return False
    return True


CELLS = st.one_of(
    st.booleans(),
    st.integers(),
    st.floats(allow_nan=False),
    st.lists(st.integers(0, 10**6), min_size=1, max_size=4),  # resolution lists
    st.text(st.characters(codec="ascii") | st.sampled_from("é€x,\"\r\n"), max_size=8).filter(
        lambda t: not reads_as_value(t)
    ),
)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_csv_round_trip_property(data):
    columns = data.draw(st.lists(st.text(max_size=6), unique=True, max_size=4), label="columns")
    row = st.fixed_dictionaries({c: CELLS for c in columns})
    rows = data.draw(st.lists(row, max_size=4), label="rows")
    assert explorer.read_table(explorer.render_csv(rows, columns=columns)) == (columns, rows)


def test_csv_round_trip_single_resolution():
    # a one-branch sweep row used to come back with an int for its resolutions
    rows = [{"config_id": "r224", "resolutions": [224]}]
    text = explorer.render_csv(rows)
    assert text == "config_id,resolutions\nr224,224x\n"
    assert explorer.read_table(text)[1] == rows


def test_csv_column_subset_and_order():
    rows = [{"a": 1, "b": 2, "c": 3}]
    text = explorer.render_csv(rows, columns=["c", "a"])
    assert text == "c,a\n3,1\n"


def test_parse_table_empty():
    with pytest.raises(ValueError, match="header"):
        explorer.read_table("")


def test_parse_table_cell_count_must_match_header():
    with pytest.raises(ParseError, match="line 3 has 4 cells, the header has 3"):
        explorer.read_table("id,flops,acc\n0,1.0,0.4\n1,2.0,0.5,EXTRA\n")
    with pytest.raises(ParseError, match="line 2 has 2 cells, the header has 3"):
        explorer.read_table("id,flops,acc\n0,1.0\n")
    assert explorer.read_table("id,flops,acc\n") == (["id", "flops", "acc"], [])


SCHEMA = json.loads(resources.files("piip").joinpath("schemas/sweep.json").read_text())


def test_json_output_validates_against_shipped_schema():
    rows = explorer.sweep(replace(explorer.parse_sweep_spec(SPEC_TEXT), budget_gflops=1.0))
    doc = json.loads(explorer.render_json(rows))
    jsonschema.validate(doc, SCHEMA)
    assert doc["schema"] == explorer.SCHEMA_ID
    assert doc["rows"] == rows

    bad = {"schema": "wrong/1", "rows": []}
    with pytest.raises(jsonschema.ValidationError):
        jsonschema.validate(bad, SCHEMA)
    bad_row = {"schema": explorer.SCHEMA_ID, "rows": [{"config_id": "x"}]}
    with pytest.raises(jsonschema.ValidationError):
        jsonschema.validate(bad_row, SCHEMA)


SWEEP_ROW = st.fixed_dictionaries(
    {
        "config_id": st.from_regex(r"r[0-9]+(-[0-9]+)*", fullmatch=True),
        "resolutions": st.lists(st.integers(1, 10**6), min_size=1, max_size=4),
        "params": st.integers(0, 10**20),
        "flops": st.integers(0, 10**20),
        "within_budget": st.booleans(),
    },
    optional={"quality": st.floats(allow_nan=False, allow_infinity=False)},
)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.lists(SWEEP_ROW, max_size=4))
def test_json_round_trip_property(rows):
    doc = json.loads(explorer.render_json(rows))
    jsonschema.validate(doc, SCHEMA)
    assert doc["rows"] == rows


def test_emit_csv_and_json(tmp_path):
    rows = explorer.sweep(explorer.parse_sweep_spec("[sweep]\nbase = piip-tiny-test\n"))
    csv_path = tmp_path / "table.csv"
    json_path = tmp_path / "table.json"
    explorer.emit(rows, str(csv_path))
    explorer.emit(rows, str(json_path))
    assert explorer.read_table(csv_path.read_text())[1] == rows
    assert json.loads(json_path.read_text())["rows"] == rows


def test_config_id_format():
    assert explorer.config_id((128, 256, 512)) == "r128-256-512"
    assert explorer.config_id((224,)) == "r224"


def test_resolve_base_prefers_presets(tmp_path):
    cfg = explorer.resolve_base("piip-tiny-test")
    assert cfg == preset("piip-tiny-test")
    from piip.config import render_config

    path = tmp_path / "variant.ini"
    path.write_text(render_config(preset("piip-tsb-toy")))
    assert explorer.resolve_base(str(path)) == preset("piip-tsb-toy")


@pytest.mark.parametrize(
    "text, message",
    [
        ("[sweep]\nbase = piip-tiny-test\nresolutions.1 = 1:2\n",
         "sweep: resolutions.1: range must be start:stop:step, got '1:2'"),
        ("[sweep]\nbase = piip-tiny-test\nresolutions.1 = a:b:c\n",
         "sweep: resolutions.1: range must be integer start:stop:step, got 'a:b:c'"),
        ("base = piip-tiny-test\n", "bad sweep spec: File contains no section headers."),
    ],
    ids=["two-part-range", "non-integer-range", "no-section-header"],
)
def test_sweep_spec_checks_raise_their_messages(text, message):
    with pytest.raises(ParseError, match=re.escape(message)):
        explorer.parse_sweep_spec(text)
