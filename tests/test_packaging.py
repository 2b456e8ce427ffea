import ast
import importlib
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"


def test_script_entry_points_import():
    scripts = tomllib.loads(PYPROJECT.read_text())["project"].get("scripts", {})
    for name, target in scripts.items():
        module, _, attr = target.partition(":")
        assert callable(getattr(importlib.import_module(module), attr)), name


SRC = PYPROJECT.parent / "src" / "treeshift"


def _names_read(tree: ast.Module) -> set[str]:
    """Every name the module reads, annotations included (a string annotation
    is parsed for the names in it)."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, (ast.arg, ast.AnnAssign, ast.FunctionDef)):
            note = node.returns if isinstance(node, ast.FunctionDef) else node.annotation
            for sub in ast.walk(note) if note is not None else ():
                if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
                    parsed = ast.walk(ast.parse(sub.value, mode="eval"))
                    names |= {n.id for n in parsed if isinstance(n, ast.Name)}
    return names


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_src_imports_only_what_it_reads(path):
    """A module-level import (one under an if, such as TYPE_CHECKING, too)
    binds only names the module reads, unless its line carries
    `# noqa: F401`, the mark of a deliberate re-export."""
    text = path.read_text()
    tree, lines = ast.parse(text), text.splitlines()
    read = _names_read(tree)
    unused = []
    nested = [n for top in tree.body if isinstance(top, ast.If) for n in top.body]
    for node in [*tree.body, *nested]:
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if getattr(node, "module", None) == "__future__":
            continue
        if any("# noqa: F401" in lines[i - 1] for i in range(node.lineno, node.end_lineno + 1)):
            continue
        for alias in node.names:
            bound = alias.asname or alias.name.partition(".")[0]
            if bound not in read:
                unused.append(f"{path.name}:{node.lineno} {bound}")
    assert not unused, unused
