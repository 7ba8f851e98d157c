"""The README's quick start runs as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_quick_start(tmp_path, monkeypatch, capsys):
    section = README.read_text(encoding="utf-8").split("## Quick start", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    monkeypatch.chdir(tmp_path)
    exec(compile(code, f"{README}:quick start", "exec"), {})
    assert len(capsys.readouterr().out.splitlines()) == 3
    text = (tmp_path / "scenario3.csv").read_text(encoding="utf-8")
    assert text.startswith("total_attenuation_db,") and len(text.splitlines()) == 82
