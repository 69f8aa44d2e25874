from __future__ import annotations

import ast
import importlib
import inspect
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import persisteval

README = Path(__file__).parent.parent / "README.md"
FIXTURE = Path(__file__).parent / "fixtures" / "two_ee"
SRC = Path(__file__).parent.parent / "src"
# The modules `import persisteval.cli` loads: each command imports its stages.
CLI_MODULES = ["persisteval", "persisteval.cli", "persisteval.errors"]
STAGES = ["corpus_diff", "measures", "persistence", "report", "run_io", "stats"]


def loaded_modules(statement: str, prefix: str = "persisteval") -> list[str]:
    """The modules whose names start with ``prefix`` in a fresh interpreter
    after ``statement``."""
    code = f"{statement}\nimport sys; print(*sorted(m for m in sys.modules))"
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": str(SRC)},
    )
    # The last line; a command's own output comes before it.
    names = result.stdout.splitlines()[-1].split()
    return [name for name in names if name.startswith(prefix)]


def test_all_exports_resolve():
    for name in persisteval.__all__:
        assert hasattr(persisteval, name), f"__all__ names missing attribute {name}"


def test_bare_import_loads_no_stage():
    assert loaded_modules("import persisteval") == ["persisteval"]


def test_cli_import_loads_no_stage():
    assert loaded_modules("import persisteval.cli") == CLI_MODULES


def run_command(argv: list) -> str:
    """A statement that runs the CLI on ``argv`` and checks it exits 0."""
    return f"from persisteval.cli import main\nassert main({[str(a) for a in argv]!r}) == 0"


def test_corpus_diff_loads_only_its_stages():
    manifests = [FIXTURE / "manifest.t1.tsv", FIXTURE / "manifest.t2.tsv"]
    loaded = loaded_modules(run_command(["corpus-diff", *manifests, "--verbose"]))
    assert loaded == sorted([*CLI_MODULES, "persisteval.corpus_diff", "persisteval.run_io"])


def test_report_loads_no_corpus_diff(tmp_path):
    cells = Path(__file__).parent / "golden" / "two_ee" / "cells.json"
    loaded = loaded_modules(run_command(["report", cells, "--output", tmp_path]))
    expected = [f"persisteval.{stage}" for stage in STAGES if stage != "corpus_diff"]
    assert loaded == sorted([*CLI_MODULES, *expected])


def test_persist_and_report_load_neither_dataclasses_nor_inspect(tmp_path):
    persist = run_command(["persist", "--config", FIXTURE / "job.json", "--output", tmp_path])
    report = run_command(["report", tmp_path / "cells.json", "--output", tmp_path / "report"])
    loaded = loaded_modules(f"{persist}\n{report}", prefix="")
    assert (tmp_path / "report" / "table.txt").exists()
    assert "dataclasses" not in loaded and "inspect" not in loaded


def test_star_import_binds_exactly_all():
    namespace: dict = {}
    exec("from persisteval import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(persisteval.__all__)
    stages = [vars(module) for name, module in sys.modules.items() if name.startswith("persisteval.")]
    for name, value in namespace.items():
        holders = [stage[name] for stage in stages if name in stage]
        assert holders and all(held is value for held in holders), name


def test_stage_module_resolves_after_a_bare_import():
    assert persisteval.report is importlib.import_module("persisteval.report")
    assert "persisteval.report" in loaded_modules("import persisteval; persisteval.report")


def test_dir_lists_the_exports():
    assert set(persisteval.__all__) <= set(dir(persisteval))


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'nonesuch'"):
        persisteval.nonesuch
    assert not hasattr(persisteval, "cli_main")


def test_version():
    assert persisteval.__version__


def test_readme_library_example_runs(monkeypatch, capsys):
    library = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    example = library.split("```python\n", 1)[1].split("\n```", 1)[0]
    monkeypatch.chdir(FIXTURE)
    exec(compile(example, "README.md", "exec"), {})
    assert len(capsys.readouterr().out.splitlines()) == 2


def test_readme_library_functions_resolve():
    """Each module-level function of a stage that the README's Library
    bullet list names, with or without its arguments, is a package export.
    A method, such as ``Run.judged``, is not module-level."""
    library = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    bullets = library.split("\n- ", 1)[1].split("\n\n", 1)[0]
    named = set(re.findall(r"`([A-Za-z_]\w*)", bullets))
    stages = [vars(importlib.import_module(f"persisteval.{stage}")) for stage in STAGES]
    functions = {name for name in named for stage in stages if inspect.isfunction(stage.get(name))}
    assert {"parse_run", "persistence_cell", "pivot_delta_series", "table_from_json"} <= functions
    assert sorted(name for name in functions if not hasattr(persisteval, name)) == []


def test_every_export_is_named_in_the_readme_library():
    """The converse: each name in ``persisteval.__all__`` appears in the
    README's Library section, so no export goes undocumented."""
    library = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    words = set(re.findall(r"[A-Za-z_]\w*", library.split("\n## ", 1)[0]))
    assert sorted(set(persisteval.__all__) - words) == []


def test_no_module_imports_a_name_it_never_uses():
    """Every name an import binds in a package module is read somewhere in
    that module; ``from __future__ import annotations`` binds nothing."""
    unused = []
    for path in sorted((SRC / "persisteval").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        nodes = list(ast.walk(tree))
        bound = {}  # name -> line of its import
        for node in nodes:
            if isinstance(node, ast.Import):
                names = [alias.asname or alias.name.split(".")[0] for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                names = [alias.asname or alias.name for alias in node.names]
            else:
                continue
            bound.update(dict.fromkeys(names, node.lineno))
        loads = [node for node in nodes if isinstance(node, ast.Name)]
        read = {node.id for node in loads if isinstance(node.ctx, ast.Load)}
        unused += [f"{path.name}:{line}: {n}" for n, line in bound.items() if n not in read]
    assert sorted(unused) == []


# ROADMAP's line ceiling for src/: its line count, so a change that shrinks src/
# lowers it to match (a stated budget raises it with the ROADMAP).
LINE_CEILING = 2295


def test_runtime_imports_only_the_standard_library():
    """Every absolute import in the package, at any depth, names a standard
    library module or the package itself; numpy and scipy are test oracles only."""
    allowed = {*sys.stdlib_module_names, "persisteval"}
    foreign = []
    for path in sorted((SRC / "persisteval").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            foreign += [f"{path.name}: {name}" for name in names if name.split(".")[0] not in allowed]
    assert foreign == []


def test_package_stays_under_the_line_ceiling():
    lines = sum(path.read_bytes().count(b"\n") for path in (SRC / "persisteval").glob("*.py"))
    assert lines == LINE_CEILING, f"src/ has {lines} lines; LINE_CEILING is {LINE_CEILING}"
