"""Resolution sweeps, Pareto filtering, and plot-ready table output.

A sweep spec is a small INI file. A comment takes a whole line: a ``;``
after a value is part of the value, so a path may contain one.

    [sweep]
    ; a preset name or the path of a config file
    base = piip-tsb-toy
    ; start:stop:step (stop exclusive), or an explicit comma list
    resolutions.1 = 32:97:32
    resolutions.2 = 64, 128
    resolutions.3 = 128:257:64
    ; optional
    budget_gflops = 2.5

Tables are lists of ordered dicts. CSV output uses RFC-4180 quoting with
one column per key; list-valued cells (branch resolutions) are rendered
``128x256x512`` (one resolution as ``224x``) so they stay unquoted and
re-parse exactly. The structured format is JSON with a ``schema`` tag and is
validated by the shipped ``schemas/sweep.json``.
"""

from __future__ import annotations

import configparser
import csv
import io
import itertools
import json
import math
import re
from dataclasses import dataclass, replace

from .config import (
    ParseError,
    PyramidConfig,
    ValidationError,
    load_config,
    preset,
    PRESET_NAMES,
)
from .costmodel import cost_report

SCHEMA_ID = "piip-sweep-table/1"

Row = dict[str, object]


# ---------------------------------------------------------------------------
# sweep spec
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SweepSpec:
    base: PyramidConfig
    resolutions: tuple[tuple[int, ...], ...]  # candidates per branch
    budget_gflops: float | None = None


MAX_RANGE_VALUES = 10_000  # a range is expanded in full, so its length is checked first


def _parse_candidates(raw: str, where: str) -> tuple[int, ...]:
    raw = raw.strip()
    if ":" in raw:
        parts = raw.split(":")
        if len(parts) != 3:
            raise ParseError(f"{where}: range must be start:stop:step, got {raw!r}")
        try:
            start, stop, step = (int(p) for p in parts)
        except ValueError:
            raise ParseError(f"{where}: range must be integer start:stop:step, got {raw!r}")
        if step <= 0:
            raise ParseError(f"{where}: range step must be positive, got {step}")
        count = max(0, -(-(stop - start) // step))  # len(range(...)) overflows past 2**63
        if count > MAX_RANGE_VALUES:
            raise ParseError(
                f"{where}: range {raw!r} has {count} values, more than {MAX_RANGE_VALUES}"
            )
        values = tuple(range(start, stop, step))
    else:
        try:
            values = tuple(int(p) for p in raw.split(","))
        except ValueError:
            raise ParseError(f"{where}: expected a comma list of integers, got {raw!r}")
    if not values:
        raise ParseError(f"{where}: empty resolution range {raw!r}")
    return values


def resolve_base(name_or_path: str) -> PyramidConfig:
    if name_or_path in PRESET_NAMES:
        return preset(name_or_path)
    return load_config(name_or_path)


def parse_sweep_spec(text: str) -> SweepSpec:
    parser = configparser.ConfigParser(interpolation=None)
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ParseError(f"bad sweep spec: {exc}") from exc
    if parser.sections() != ["sweep"]:
        raise ParseError(
            f"sweep spec needs exactly one [sweep] section, got {parser.sections()}"
        )
    section = parser["sweep"]
    known = {"base", "budget_gflops"}
    base = None
    budget = None
    per_branch: dict[int, tuple[int, ...]] = {}
    keys: dict[int, str] = {}  # branch -> the key that named it
    for key, raw in section.items():
        if key == "base":
            base = resolve_base(raw.strip())
        elif key == "budget_gflops":
            try:
                budget = float(raw)
            except ValueError:
                raise ParseError(f"sweep: budget_gflops must be a number, got {raw!r}") from None
        elif key.startswith("resolutions."):
            index = key.split(".", 1)[1]
            if not index.isdecimal():
                raise ParseError(f"sweep: {key!r} must name a branch as resolutions.<N>")
            idx = int(index)
            if idx in keys:
                raise ParseError(f"sweep: {key!r} repeats {keys[idx]!r}")
            keys[idx] = key
            per_branch[idx] = _parse_candidates(raw, f"sweep: {key}")
        else:
            raise ParseError(f"sweep: unknown key {key!r} (expected "
                             f"{sorted(known)} or resolutions.<branch>)")
    if base is None:
        raise ParseError("sweep: missing required key 'base'")
    n = len(base.branches)
    for idx in per_branch:
        if not 1 <= idx <= n:
            raise ParseError(f"sweep: resolutions.{idx} out of range for {n} branches")
    candidates = []
    for j, branch in enumerate(base.branches, start=1):
        values = per_branch.get(j, (branch.resolution,))
        for r in values:
            if r <= 0 or r % branch.patch_size != 0:
                raise ValidationError(
                    f"sweep: resolutions.{j} candidate {r} not divisible by "
                    f"branch {j} patch_size {branch.patch_size}"
                )
        candidates.append(values)
    return SweepSpec(base=base, resolutions=tuple(candidates), budget_gflops=budget)


def load_sweep_spec(path: str) -> SweepSpec:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_sweep_spec(fh.read())


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------


def config_id(resolutions: tuple[int, ...]) -> str:
    return "r" + "-".join(str(r) for r in resolutions)


def sweep(spec: SweepSpec) -> list[Row]:
    """Exhaustive resolution grid; rows that break pyramid ordering are dropped.

    A combination is kept only when resolutions are non-decreasing with the
    branch index, preserving the narrower-branch-sees-more-pixels layout.
    Rows over budget are flagged via ``within_budget``, never dropped.
    """
    budget = spec.budget_gflops
    if budget is not None and math.isnan(budget):
        raise ParseError("sweep: budget_gflops must be a number, got nan")
    rows: list[Row] = []
    for combo in itertools.product(*spec.resolutions):
        if any(combo[i] > combo[i + 1] for i in range(len(combo) - 1)):
            continue
        branches = tuple(
            replace(b, resolution=r) for b, r in zip(spec.base.branches, combo)
        )
        cfg = replace(spec.base, branches=branches)
        report = cost_report(cfg)
        flops = report.total_flops
        rows.append(
            {
                "config_id": config_id(combo),
                "resolutions": list(combo),
                "params": report.total_params,
                "flops": flops,
                "within_budget": True if budget is None else flops <= budget * 1e9,
            }
        )
    if not rows:
        raise ValidationError("sweep produced no rows: every combination broke "
                              "the resolution ordering")
    return rows


# ---------------------------------------------------------------------------
# pareto
# ---------------------------------------------------------------------------


class NaNCellError(ValueError):
    """A NaN cost or quality cell: no ordering puts it on or off a Pareto front."""


def numeric_column(rows: list[Row], col: str) -> list[float]:
    """One column of a table as floats; a missing, non-numeric or NaN cell names its row.

    A boolean cell is not a number, although ``float(True) == 1.0``.
    """
    values = []
    for i, row in enumerate(rows):
        if col not in row:
            raise ValueError(f"column {col!r} missing from table row {i}")
        try:
            if isinstance(row[col], bool):
                raise TypeError
            value = float(row[col])  # type: ignore[arg-type]
        except (TypeError, ValueError):
            raise ValueError(
                f"column {col!r} is not a number in table row {i}: {row[col]!r}"
            ) from None
        if math.isnan(value):
            raise NaNCellError(f"column {col!r} is NaN in table row {i}")
        values.append(value)
    return values


def pareto_front(rows: list[Row], cost_col: str, quality_col: str) -> list[Row]:
    """Rows not dominated in (lower cost, higher quality), sorted by cost.

    Single sort-and-scan pass: walking equal-cost groups in ascending cost,
    a group's quality maximum must beat everything strictly cheaper, and
    only rows achieving the group maximum survive.
    """
    cost = numeric_column(rows, cost_col)
    quality = numeric_column(rows, quality_col)
    order = sorted(range(len(rows)), key=lambda i: cost[i])
    kept: list[int] = []
    best_cheaper = float("-inf")
    i = 0
    while i < len(order):
        j = i
        while j < len(order) and cost[order[j]] == cost[order[i]]:
            j += 1
        group = order[i:j]
        group_max = max(quality[k] for k in group)
        if group_max > best_cheaper:
            kept.extend(k for k in group if quality[k] == group_max)
        best_cheaper = max(best_cheaper, group_max)
        i = j
    return [rows[k] for k in kept]


# ---------------------------------------------------------------------------
# table emit / parse
# ---------------------------------------------------------------------------

_RES_LIST = re.compile(r"[0-9]+(x[0-9]+)+|[0-9]+x")
_INT = re.compile(r"-?[0-9]+")


def _format_cell(value: object) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (list, tuple)):
        return "x".join(str(v) for v in value) + ("x" if len(value) == 1 else "")
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _parse_cell(text: str) -> object:
    if text == "true":
        return True
    if text == "false":
        return False
    if _INT.fullmatch(text):
        return int(text)
    if _RES_LIST.fullmatch(text):
        return [int(p) for p in text.split("x") if p]
    try:
        return float(text)
    except ValueError:
        return text


def render_csv(rows: list[Row], columns: list[str] | None = None) -> str:
    if columns is None:
        columns = list(rows[0]) if rows else []
    buf = io.StringIO()
    plain = csv.writer(buf, lineterminator="\n")
    # with a "\n" terminator only QUOTE_ALL quotes a "\r", which the reader needs
    quoted = csv.writer(buf, lineterminator="\n", quoting=csv.QUOTE_ALL)
    for cells in [columns] + [[_format_cell(row[c]) for c in columns] for row in rows]:
        (quoted if any("\r" in c for c in cells) else plain).writerow(cells)
    return buf.getvalue()


def read_table(text: str) -> tuple[list[str], list[Row]]:
    """CSV text as (header, rows); every line must have the header's cell count."""
    reader = csv.reader(io.StringIO(text))
    header = next(reader, None)
    if header is None:
        raise ValueError("empty table: no header row")
    rows = []
    for line in reader:
        if len(line) != len(header):
            raise ParseError(f"table line {reader.line_num} has {len(line)} cells, "
                             f"the header has {len(header)}")
        rows.append({col: _parse_cell(cell) for col, cell in zip(header, line)})
    return header, rows


def render_json(rows: list[Row]) -> str:
    return json.dumps({"schema": SCHEMA_ID, "rows": rows}, indent=2) + "\n"


def emit(rows: list[Row], path: str) -> None:
    """Write a table; ``.json`` gets the structured format, anything else CSV."""
    text = render_json(rows) if path.endswith(".json") else render_csv(rows)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)


__all__ = [
    "SCHEMA_ID",
    "SweepSpec",
    "config_id",
    "emit",
    "load_sweep_spec",
    "pareto_front",
    "parse_sweep_spec",
    "read_table",
    "render_csv",
    "render_json",
    "resolve_base",
    "sweep",
]
