"""Module boundaries: no mfring module imports another one's private names,
nothing is defined in the package that the package never names, and
importing the package loads no heavy standard-library module."""

import ast
import json
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

import mfring

SRC = Path(mfring.__file__).parent
ROOT = Path(__file__).resolve().parent.parent

# definitions that only a reader outside the package names, with that reader;
# an allowance lapses when its reader no longer names the definition
READ_OUTSIDE = {"coords": "perfbench/tracing.py", "coeffs": "perfbench/tracing.py"}


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


def _definitions():
    """Every function, class and method defined in the package, dunders aside,
    each as (name, whether it is a method or property of a class)."""
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        members = {id(node) for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
                   for node in cls.body}
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if not (node.name.startswith("__") and node.name.endswith("__")):
                    yield node.name, id(node) in members


def _attributes_read(text: str) -> set[str]:
    """The names read as an attribute, `.name`, in the source text."""
    return {node.attr for node in ast.walk(ast.parse(text)) if isinstance(node, ast.Attribute)}


def test_every_definition_is_named_again_in_the_package():
    # a name that only tests use belongs in the tests; a method or property counts
    # only where it is read as an attribute, so that no local variable of the same
    # name hides an unused one
    sources = [path.read_text() for path in sorted(SRC.glob("*.py"))]
    text = "\n".join(sources)
    definitions = list(_definitions())
    defined = Counter(name for name, _ in definitions)
    assert len(defined) > 50
    unused = {name for name, count in defined.items()
              if len(re.findall(rf"\b{name}\b", text)) <= count}
    read = set().union(*map(_attributes_read, sources))
    unused |= {name for name, member in definitions if member and name not in read}
    for name, reader in READ_OUTSIDE.items():
        assert name in defined and name in _attributes_read((ROOT / reader).read_text()), reader
    assert unused - READ_OUTSIDE.keys() == set()


# imported by nothing at startup: dataclasses brings inspect, ast and dis, and
# importlib.resources costs more than the whole package
HEAVY = ("dataclasses", "inspect", "ast", "importlib.resources")
_PROBE = """
import json, sys
before = set(sys.modules)
sys.path.insert(0, sys.argv[1])
import mfring, mfring.cli
mfring.load_catalog()
print(json.dumps(sorted(set(sys.modules) - before)))
"""


def test_import_and_load_bring_in_no_heavy_modules():
    proc = subprocess.run([sys.executable, "-I", "-S", "-c", _PROBE, str(SRC.parent)],
                          capture_output=True, text=True, timeout=60, check=True)
    added = json.loads(proc.stdout)
    assert "mfring.cli" in added
    assert [name for name in HEAVY if name in added] == []
