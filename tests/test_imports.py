"""Every name a cardl module imports is used in that module."""

import ast
from pathlib import Path

import cardl

# (module, name) pairs bound on purpose without a use
ALLOWED_UNUSED = {
    ("pairhead", "adam_step"),  # benchmarks/test_bench.py reads this binding
}


def unused_imports(source: str) -> set[str]:
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return imported - used


def test_no_module_imports_a_name_it_never_uses():
    assert unused_imports("from .errors import DataError, NumericError\nraise DataError('x')\n") == {"NumericError"}
    found = {
        (path.stem, name)
        for path in Path(cardl.__file__).parent.glob("*.py")
        if path.name != "__init__.py"
        for name in unused_imports(path.read_text())
    }
    assert found == ALLOWED_UNUSED

