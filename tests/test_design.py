"""Design guards over the library source."""

import ast
from pathlib import Path

import ftnlab

SRC = Path(ftnlab.__file__).parent
MODULES = {path.stem for path in SRC.glob("*.py")} - {"__init__"}


def _private(name):
    return name.startswith("_") and not name.startswith("__")


def test_no_module_reads_another_modules_private_names():
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        # Names bound to sibling modules: `from . import modem`, `import ftnlab.modem as m`.
        siblings = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (node.level or node.module == "ftnlab"):
                if node.module in (None, "ftnlab"):
                    siblings |= {a.asname or a.name for a in node.names if a.name in MODULES}
                found += [f"{path.name}:{node.lineno} imports {a.name}"
                          for a in node.names if _private(a.name)]
            elif isinstance(node, ast.Import):
                siblings |= {a.asname for a in node.names
                             if a.asname and a.name.startswith("ftnlab.")}
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute) and _private(node.attr)
                    and isinstance(node.value, ast.Name) and node.value.id in siblings):
                found.append(f"{path.name}:{node.lineno} reads {node.value.id}.{node.attr}")
    assert found == []


def test_only_transforms_reads_the_kernel():
    readers = sorted(
        path.name for path in SRC.glob("*.py")
        if any(isinstance(node, ast.Attribute) and node.attr == "kernel"
               for node in ast.walk(ast.parse(path.read_text())))
    )
    assert readers == ["transforms.py"]
