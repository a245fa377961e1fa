"""Every name the benchmark harness imports from fritpid exists.

``perfbench/`` imports fritpid modules and names, some of them inside
functions, and changes only together with its benchmark. A name the
program drops would otherwise show up only as a failed benchmark run, so
the harness's imports are collected here with ``ast`` and checked one by
one.
"""

import ast
import importlib
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _fritpid_imports():
    """(module, name) for every ``from fritpid... import name`` and
    (module, None) for every ``import fritpid...``, nested ones included."""
    found = set()
    for path in sorted([*PERFBENCH.glob("*.py"), *PERFBENCH.glob("tests/*.py")]):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [(a.name, None) for a in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [(node.module, a.name) for a in node.names]
            else:
                continue
            found.update(item for item in names if item[0].split(".")[0] == "fritpid")
    return sorted(found, key=lambda item: (item[0], item[1] or ""))


IMPORTS = _fritpid_imports()


def test_the_harness_imports_from_fritpid():
    assert ("fritpid.folib", "realize") in IMPORTS


@pytest.mark.parametrize(
    "module,name", IMPORTS, ids=[m if n is None else f"{m}.{n}" for m, n in IMPORTS]
)
def test_imported_name_exists(module, name):
    owner = importlib.import_module(module)
    if name is not None:
        assert hasattr(owner, name), f"{module} has no attribute {name}"
