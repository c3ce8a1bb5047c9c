"""The README's Quick start example runs against the current public API."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def quick_start_block() -> str:
    section = README.read_text().split("## Quick start", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_quick_start_runs():
    names = {}
    exec(compile(quick_start_block(), "README.md (Quick start)", "exec"), names)
    assert names["traj"].final_populations[2] > 0.9999
    assert names["res"].final_p2 > 0.99
    assert 0.01 < names["res"].max_phonon < 0.04
