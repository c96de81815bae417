"""README: the "Library use" example runs as written."""

from __future__ import annotations

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_use_example_runs(tmp_path, monkeypatch, capsys):
    section = README.read_text(encoding="utf-8").split("## Library use", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    monkeypatch.chdir(tmp_path)
    exec(compile(code, f"{README}: Library use", "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    assert lines[-1] == "en"
    assert (tmp_path / "archive" / "records.dat").exists()
