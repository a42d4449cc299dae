"""The examples in the docs run as written."""

import re
import textwrap
from pathlib import Path

import pytest

from piip import explorer

ROOT = Path(__file__).resolve().parents[1]


def test_readme_quick_start_runs(capsys):
    section = (ROOT / "README.md").read_text(encoding="utf-8").split("## Quick start", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(code, "README.md#quick-start", "exec"), {})
    assert "total" in capsys.readouterr().out


SWEEP_EXAMPLES = [
    # indented blocks in the module docstring
    *(textwrap.dedent(m) for m in re.findall(r"^    \[sweep\]\n(?:    .+\n)+", explorer.__doc__, re.M)),
    # fenced ini blocks in the sweep reference
    *re.findall(r"```ini\n(\[sweep\]\n.*?)```",
                (ROOT / "docs" / "sweep-tables.md").read_text(encoding="utf-8"), re.S),
]


@pytest.mark.parametrize("text", SWEEP_EXAMPLES, ids=["explorer-docstring", "sweep-tables-md"])
def test_sweep_spec_examples_parse_and_sweep(text):
    rows = explorer.sweep(explorer.parse_sweep_spec(text))
    assert rows and all(r["within_budget"] in (True, False) for r in rows)
