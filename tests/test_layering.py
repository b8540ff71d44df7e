"""Module boundaries: no mfring module imports another one's private names."""

import ast
from pathlib import Path

import mfring

SRC = Path(mfring.__file__).parent


def _private_imports(path: Path):
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if not isinstance(node, ast.ImportFrom):
            continue
        internal = node.level > 0 or (node.module or "").split(".")[0] == "mfring"
        if internal:
            yield from (f"{node.module}.{a.name}" for a in node.names if a.name.startswith("_"))


def test_no_module_imports_private_names_of_another():
    found = {path.name: list(_private_imports(path)) for path in sorted(SRC.glob("*.py"))}
    assert len(found) > 5
    assert {name: bad for name, bad in found.items() if bad} == {}
