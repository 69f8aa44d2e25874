from __future__ import annotations

from pathlib import Path

import persisteval

README = Path(__file__).parent.parent / "README.md"
FIXTURE = Path(__file__).parent / "fixtures" / "two_ee"


def test_all_exports_resolve():
    for name in persisteval.__all__:
        assert hasattr(persisteval, name), f"__all__ names missing attribute {name}"


def test_version():
    assert persisteval.__version__


def test_readme_library_example_runs(monkeypatch, capsys):
    library = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    example = library.split("```python\n", 1)[1].split("\n```", 1)[0]
    monkeypatch.chdir(FIXTURE)
    exec(compile(example, "README.md", "exec"), {})
    assert len(capsys.readouterr().out.splitlines()) == 2
