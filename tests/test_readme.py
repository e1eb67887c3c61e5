"""The README's library quickstart runs as written."""

from __future__ import annotations

import json
import re
from pathlib import Path

README = Path(__file__).parents[1] / "README.md"


def test_readme_library_quickstart_runs(capsys):
    text = README.read_text(encoding="utf-8")
    blocks = re.findall(r"```python\n(.*?)```", text, re.DOTALL)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {"__name__": "readme"})
    *_, report = capsys.readouterr().out.splitlines()
    assert json.loads(report)["n_utts"] == 8
