"""The README's library example runs as written, so the docs cannot drift
from the public API unnoticed."""

import re
from pathlib import Path

from uled_inspect.pipeline import ARTIFACT_NAMES

README = Path(__file__).resolve().parents[1] / "README.md"


def python_block(heading):
    """The first ```python block under the README section `heading`."""
    section = README.read_text(encoding="utf-8").split(f"\n## {heading}\n", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_readme_library_use_runs(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    exec(compile(python_block("Library use"), "README.md", "exec"), {})
    assert sorted(p.name for p in (tmp_path / "out").iterdir()) == sorted(ARTIFACT_NAMES)
    assert capsys.readouterr().out.count("\n") == 2
