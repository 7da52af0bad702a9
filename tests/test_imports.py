"""Every name a cardl module imports is used in that module, and no module
reads the process environment."""

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



# os's names for the process environment and its reads
ENVIRONMENT = {"environ", "environb", "getenv", "getenvb"}


def environment_reads(source: str) -> set[int]:
    """The lines of `source` that name one of ENVIRONMENT, as an attribute or an import from os."""
    return {
        node.lineno
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Attribute) and node.attr in ENVIRONMENT
        or isinstance(node, ast.ImportFrom) and node.module == "os" and any(a.name in ENVIRONMENT for a in node.names)
    }


def test_no_module_reads_the_process_environment():
    """A setting comes from an argument or a library default, never from an environment variable."""
    sample = "import os\nos.environ.get('A')\nos.getenv('B')\nfrom os import environ\nos.path.join('a')\n"
    assert environment_reads(sample) == {2, 3, 4}
    found = {
        (path.name, line)
        for path in Path(cardl.__file__).parent.glob("*.py")
        for line in environment_reads(path.read_text())
    }
    assert found == set()
