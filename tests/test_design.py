"""Design guards over the library source."""

import ast
import importlib
import inspect
import os
import subprocess
import sys
from pathlib import Path

import ftnlab
from ftnlab import config, exceptions
from ftnlab.berlab import run_ber_sweep

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


def test_no_function_imports_a_sibling_module():
    # Siblings are imported at module level, so the import graph is the one
    # the module headers show and a cycle fails at import, not at a call.
    # A function may still import a heavy third-party module (scipy) lazily.
    found = sorted({
        f"{path.name}:{node.lineno}"
        for path in SRC.glob("*.py")
        for function in ast.walk(ast.parse(path.read_text()))
        if isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef))
        for node in ast.walk(function)
        if isinstance(node, ast.ImportFrom)
        and (node.level >= 1 or (node.module or "").split(".")[0] == "ftnlab")
    })
    assert found == []


def _ftnlab_imports(tree):
    """The names a module binds by importing from ftnlab: {bound name:
    `module.name`} for functions and classes, and {bound name: module} for
    the modules themselves.  A name imported from the package is filed
    under `__init__`."""
    names, modules = {}, {}
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom):
            continue
        if node.level == 1:
            source = node.module
        elif node.module == "ftnlab" or (node.module or "").startswith("ftnlab."):
            source = node.module.removeprefix("ftnlab").removeprefix(".")
        else:
            continue
        for alias in node.names:
            bound = alias.asname or alias.name
            if not source and alias.name in MODULES:
                modules[bound] = alias.name
            else:
                names[bound] = f"{source or '__init__'}.{alias.name}"
    return names, modules


def _ftnlab_reads(path):
    """The `module.name` pairs a file reads from ftnlab: a name it imports
    or (in the package) defines at top level and then loads, or an attribute
    of an imported ftnlab module.  An attribute of anything else (a
    dataclass field such as `p.ici_power`) is not a read of the function of
    that name."""
    tree = ast.parse(path.read_text(), filename=str(path))
    names, modules = _ftnlab_imports(tree)
    if path.parent == SRC:
        names.update({node.name: f"{path.stem}.{node.name}" for node in tree.body
                      if isinstance(node, (ast.FunctionDef, ast.ClassDef))})
    reads = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) and node.id in names:
            reads.add(names[node.id])
        elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
              and node.value.id in modules):
            reads.add(f"{modules[node.value.id]}.{node.attr}")
    return reads


def test_every_public_name_has_a_caller():
    # Each name the package exports is read by a module of the package, its
    # own included, or by a demo: not only by the tests.
    exported = set(_ftnlab_imports(ast.parse((SRC / "__init__.py").read_text()))[0].values())
    assert "icimodel.ici_power" in exported
    # A demo may read a name through the package.
    through_package = {f"__init__.{name.split('.')[1]}": name for name in exported}
    demos = sorted((SRC.parents[1] / "demos").glob("*.py"))
    assert demos
    unread = set(exported)
    for path in [*SRC.glob("*.py"), *demos]:
        unread -= {through_package.get(name, name) for name in _ftnlab_reads(path)}
    assert sorted(unread) == []


def test_every_public_method_has_a_caller():
    # Each public method or property of a class in the package is read as an
    # attribute by a module of the package or by a demo: not only by the tests.
    demos = sorted((SRC.parents[1] / "demos").glob("*.py"))
    read = {node.attr for path in [*SRC.glob("*.py"), *demos]
            for node in ast.walk(ast.parse(path.read_text())) if isinstance(node, ast.Attribute)}
    unread = sorted(
        f"{path.stem}.{cls.name}.{method.name}" for path in SRC.glob("*.py")
        for cls in ast.parse(path.read_text()).body if isinstance(cls, ast.ClassDef)
        for method in cls.body
        if isinstance(method, ast.FunctionDef) and not method.name.startswith("_")
        and method.name not in read
    )
    assert unread == []


# Every keyword-only parameter of a public function: the buffers (`out`,
# `scratch`, `work`) and the detector's `trace`.  A new buffer or
# other keyword knob has to be added here on purpose.
KEYWORD_ONLY = {
    "channel.apply_awgn": ("out", "scratch"),
    "equalize.id_equalize_frame": ("trace", "work"),
    "modem.pam_index": ("out",),
    "modem.pam_map": ("out",),
    "transforms.demultiplex": ("out",),
}


def test_buffer_keywords_are_listed():
    found = {}
    for module_name in sorted(MODULES):
        module = importlib.import_module(f"ftnlab.{module_name}")
        for name, fn in vars(module).items():
            if _private(name) or not inspect.isfunction(fn) or fn.__module__ != module.__name__:
                continue
            keywords = tuple(p.name for p in inspect.signature(fn).parameters.values()
                             if p.kind is p.KEYWORD_ONLY)
            if keywords:
                found[f"{module_name}.{name}"] = keywords
    assert found == KEYWORD_ONLY


def test_only_transforms_reads_the_kernel():
    readers = sorted(
        path.name for path in SRC.glob("*.py")
        if any(isinstance(node, ast.Attribute) and node.attr == "kernel"
               for node in ast.walk(ast.parse(path.read_text())))
    )
    assert readers == ["transforms.py"]


def test_import_leaves_heavy_scipy_modules_unloaded():
    # In a fresh interpreter: importing the package and its CLI loads none of
    # scipy's heavy submodules, and each function that needs one still gets it.
    code = """
import sys
import ftnlab, ftnlab.cli
heavy = ("scipy.stats", "scipy.optimize", "scipy.signal", "scipy.special")
print(sorted(m for m in heavy if m in sys.modules))
from ftnlab.berlab import estimate_psd
from ftnlab.icimodel import IciPdfModel, fit_sigma_mle, mixture_cdf
from ftnlab.modem import ModemConfig
mixture_cdf(IciPdfModel(sigma=0.5), [0.0])
fit_sigma_mle([-1.0, 1.0])
estimate_psd(ModemConfig(n=16, alpha=0.8, cp_len=0), frames=4, seed=0)
print(sorted(m for m in heavy if m in sys.modules))
"""
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    before, after = proc.stdout.splitlines()
    assert before == "[]"
    assert after == "['scipy.optimize', 'scipy.signal', 'scipy.special', 'scipy.stats']"


def _called_name(node):
    func = node.func
    return func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)


def _scalar_finiteness_tests(node):
    """The `isfinite` calls and comparisons with `inf` in an `if` test, but
    for element-wise array checks that `all`/`any` reduce."""
    if isinstance(node, ast.Call) and _called_name(node) in ("all", "any"):
        return
    if isinstance(node, ast.Call) and _called_name(node) == "isfinite":
        yield node
    if isinstance(node, ast.Compare) and any(
        isinstance(side, ast.Attribute) and side.attr == "inf"
        for side in (node.left, *node.comparators)
        for side in [side.operand if isinstance(side, ast.UnaryOp) else side]
    ):
        yield node
    for child in ast.iter_child_nodes(node):
        yield from _scalar_finiteness_tests(child)


def test_real_parameters_are_checked_in_one_place():
    # A real-valued parameter goes through exceptions.check_real, so no other
    # module tests finiteness or an infinite bound itself to raise ParameterError.
    found = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "exceptions.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.If) or not any(_scalar_finiteness_tests(node.test)):
                continue
            raises = [r for stmt in node.body for r in ast.walk(stmt) if isinstance(r, ast.Raise)]
            if any(isinstance(r.exc, ast.Call) and _called_name(r.exc) == "ParameterError"
                   for r in raises):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def _refuses_a_type(test):
    """Whether an `if` test is `not isinstance(...)`, alone or as a term of
    an `and`: a test whose body refuses the argument for its type."""
    conjunction = isinstance(test, ast.BoolOp) and isinstance(test.op, ast.And)
    return any(isinstance(term, ast.UnaryOp) and isinstance(term.op, ast.Not)
               and isinstance(term.operand, ast.Call)
               and _called_name(term.operand) == "isinstance"
               for term in (test.values if conjunction else [test]))


def test_types_are_checked_in_one_place():
    # An object argument of the wrong class is refused by exceptions.check_type,
    # in one wording, so no other module raises a ParameterError (or a subclass)
    # from an `if not isinstance(...)` of its own.  A compound rule such as
    # "a nonempty tuple" (`not isinstance(...) or not axis`) is a rule of its
    # own, and a type dispatch tests `isinstance` without `not`.
    refusals = {name for name, obj in vars(exceptions).items()
                if isinstance(obj, type) and issubclass(obj, exceptions.ParameterError)}
    found = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "exceptions.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.If) or not _refuses_a_type(node.test):
                continue
            raises = [r for stmt in node.body for r in ast.walk(stmt) if isinstance(r, ast.Raise)]
            if any(isinstance(r.exc, ast.Call) and _called_name(r.exc) in refusals
                   for r in raises):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def _float64_conversions(tree):
    """The calls that convert to float64: `asarray`/`array` with a float
    `dtype=`, and `astype` to a float type."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        name = _called_name(node)
        dtypes = [kw.value for kw in node.keywords if kw.arg == "dtype"]
        if name == "astype":
            dtypes += node.args[:1]
        elif name not in ("asarray", "asanyarray", "array"):
            continue
        if any("float" in ast.unparse(dtype) for dtype in dtypes):
            yield node


def test_real_arrays_are_checked_in_one_place():
    # An array argument becomes float64 through exceptions.check_real_array,
    # which rejects complex, object, string and ragged input first.
    found = [
        f"{path.name}:{node.lineno}" for path in sorted(SRC.glob("*.py"))
        if path.name != "exceptions.py"
        for node in _float64_conversions(ast.parse(path.read_text()))
    ]
    assert found == []
    assert list(_float64_conversions(ast.parse((SRC / "exceptions.py").read_text())))


def test_only_records_opens_files():
    # Every file is read and written through records.opened, so an unreadable
    # or undecodable file fails in one form wherever it is named.
    openers = sorted(
        f"{path.name}:{node.lineno}" for path in SRC.glob("*.py")
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Call) and _called_name(node) == "open"
    )
    assert [site for site in openers if not site.startswith("records.py:")] == []
    assert openers, "records.py opens its files with open()"



def test_only_exceptions_checks_keys():
    # Sweep files, manifests and replayed parameters meet one key check,
    # `exceptions.check_keys`, so an unknown or missing key reads alike.
    wordings = ("unknown key", "missing required key", "lacks field")
    sites = sorted(
        f"{path.name}: {wording}" for path in SRC.glob("*.py") if path.name != "exceptions.py"
        for wording in wordings if wording in path.read_text()
    )
    assert sites == []


def test_one_parallel_mechanism():
    # A sweep's workers are threads of berlab's one executor, with BLAS pinned
    # through ctypes; no module starts processes, threads of its own or another pool.
    imports = {}
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            for name in names:
                imports.setdefault(name.split(".")[0], set()).add(path.name)
    thread_modules = {name for name in sys.stdlib_module_names if "thread" in name}
    assert not (thread_modules | {"multiprocessing"}) & imports.keys()
    assert imports["concurrent"] == imports["ctypes"] == {"berlab.py"}


def test_every_sweep_key_changes_a_sweep():
    # A key whose value no sweep reads is a setting in name only.  Each key
    # moved off a tiny base sweep (N = 16, I = 2, 13 batches that run to
    # max_bits) changes the bits or the errors it counts.
    base = {"n": 16, "cp_len": 0, "data_symbols_per_frame": 16, "training_symbols": 0,
            "sync_symbols": 0, "alpha": [0.9], "ebn0_db": [4.0], "iterations": [2],
            "kind": ["FrCT"], "max_bits": 100_000, "min_errors": 10**6,
            "frames_per_batch": 32, "seed": 0}
    moved = {"n": 32, "cp_len": 4, "data_symbols_per_frame": 15, "training_symbols": 1,
             "sync_symbols": 1, "alpha": [0.8], "ebn0_db": [6.0], "iterations": [1],
             "kind": ["FrHT"], "max_bits": 200_000, "min_errors": 10,
             "frames_per_batch": 31, "seed": 1}
    assert sorted(moved) == sorted(config._SWEEP_FIELDS)

    def counts(values):
        spec = config.sweep_spec_from_json_dict(values)
        return [(p.bits, p.errors) for p in run_ber_sweep(spec).points]

    default = counts(base)
    assert [key for key, value in moved.items() if counts({**base, key: value}) == default] == []
