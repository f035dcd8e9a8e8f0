"""Dead-code and NaN-gate lint over the package sources, on the standard
library's ast.

Six rules: no module imports a name it never reads, no module-level
private name goes unread across the package, no public function or class
goes unnamed outside its own definition and __init__.py (the package,
demos/, bench/ and tests/test_acceptance.py count), every field of
config.Tolerances is read as TOL.<field> in the package, no raise is guarded by
a bare ordering comparison with a TOL bound or on a parameter annotated
float, and no module sets warning filters.  NaN makes every such comparison
False, so `if value > TOL.bound: raise` lets NaN through; `if not value <=
TOL.bound: raise` stops it.  A filter set inside the package would hide a
warning from the caller, whose filters alone decide what is shown.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "stokespace"
TREES = {path.name: ast.parse(path.read_text(), str(path))
         for path in sorted(SRC.glob("*.py"))}
ROOT = SRC.parents[1]
# the package's readers beyond itself, whose names keep a public name alive
READERS = [ast.parse(path.read_text(), str(path)) for path in (
    *sorted((ROOT / "demos").glob("*.py")), *sorted((ROOT / "bench").glob("*.py")),
    ROOT / "tests" / "test_acceptance.py")]


def _read_names(tree: ast.Module) -> set[str]:
    """Names a module reads: every name not being assigned, and the
    entries of __all__."""
    names = {node.id for node in ast.walk(tree)
             if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            names.update(ast.literal_eval(node.value))
    return names


def _imported(tree: ast.Module):
    """(bound name, line) of every import of a module."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


def _private_definitions(tree: ast.Module):
    """(name, line) of every module-level _private name, dunders aside."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            targets = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            nodes = node.targets if isinstance(node, ast.Assign) else [node.target]
            targets = [t.id for t in nodes if isinstance(t, ast.Name)]
        else:
            continue
        for name in targets:
            if name.startswith("_") and not name.endswith("__"):
                yield name, node.lineno


def test_no_module_imports_a_name_it_never_reads():
    unused = [f"{module}:{line} {name}" for module, tree in TREES.items()
              for name, line in _imported(tree) if name not in _read_names(tree)]
    assert unused == []


def test_every_private_module_name_is_read_somewhere():
    read = set()
    for tree in TREES.values():
        read |= _read_names(tree)
        read |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    unread = [f"{module}:{line} {name}" for module, tree in TREES.items()
              for name, line in _private_definitions(tree) if name not in read]
    assert unread == []


def _named(tree: ast.AST, skip: ast.AST | None = None) -> set[str]:
    """Names read under tree outside the node skip: loaded names, attributes,
    and string constants (bench/tracer.py names its layers' functions so)."""
    names, stack = set(), [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            names.add(node.value)
        stack.extend(ast.iter_child_nodes(node))
    return names


def _public_definitions(module: str, tree: ast.Module):
    """Every module-level public function or class; the cli's main and its
    cmd_ functions, which main finds by name, aside."""
    for node in tree.body:
        if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                and not node.name.startswith("_")
                and not (module == "cli.py"
                         and (node.name == "main" or node.name.startswith("cmd_")))):
            yield node


def test_named_skips_the_definition_itself():
    tree = ast.parse("def f(n):\n    return f(n - 1)\n"
                     "def g():\n    return h.k, 'layer'\n")
    assert "f" not in _named(tree, tree.body[0])
    assert {"f", "h", "k", "layer"} <= _named(tree)


def test_every_public_name_has_a_caller():
    # a public name that only unit tests call is API that nothing uses
    outside = set().union(*map(_named, READERS))
    package = [tree for module, tree in TREES.items() if module != "__init__.py"]
    uncalled = [f"{module}:{node.lineno} {node.name}"
                for module, tree in TREES.items() if module != "__init__.py"
                for node in _public_definitions(module, tree)
                if node.name not in outside
                and not any(node.name in _named(t, node) for t in package)]
    assert uncalled == []


def test_every_tolerance_is_read():
    # a field that no code reads as TOL.<field> is a knob that turns nothing
    record = next(node for node in TREES["config.py"].body
                  if isinstance(node, ast.ClassDef) and node.name == "Tolerances")
    read = {node.attr for tree in TREES.values() for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and getattr(node.value, "id", None) == "TOL"}
    unread = [node.target.id for node in record.body
              if isinstance(node, ast.AnnAssign) and node.target.id not in read]
    assert unread == []


_ORDERING = (ast.Lt, ast.Gt, ast.LtE, ast.GtE)


def _float_parameters(func) -> set[str]:
    """Parameters of a function whose annotation names float."""
    args = func.args
    return {a.arg for a in (*args.posonlyargs, *args.args, *args.kwonlyargs)
            if a.annotation is not None
            and any(getattr(n, "id", None) == "float" for n in ast.walk(a.annotation))}


def _nan_blind_gates(tree: ast.Module):
    """Line of every if whose body raises and whose test is, or joins with
    and/or, a bare ordering comparison that reads TOL or a float-annotated
    parameter of a function around it."""
    watched = {}  # node -> TOL and the float parameters in scope
    for func in ast.walk(tree):
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            names = _float_parameters(func)
            for node in ast.walk(func):
                watched.setdefault(node, {"TOL"}).update(names)
    for node in ast.walk(tree):
        if not (isinstance(node, ast.If)
                and any(isinstance(stmt, ast.Raise) for stmt in node.body)):
            continue
        names = watched.get(node, {"TOL"})
        tests = node.test.values if isinstance(node.test, ast.BoolOp) else [node.test]
        if any(isinstance(test, ast.Compare)
               and any(isinstance(op, _ORDERING) for op in test.ops)
               and any(getattr(n, "id", None) in names for n in ast.walk(test))
               for test in tests):
            yield node.lineno


def test_nan_blind_gate_rule_flags_a_bare_comparison():
    tree = ast.parse(
        "def check(x, y):\n"
        "    if x > TOL.bound:\n"                      # line 2: NaN passes
        "        raise ValueError\n"
        "    if y < 0 or abs(y - 1) >= TOL.window:\n"  # line 4: NaN passes
        "        raise ValueError\n"
        "    if not x <= TOL.bound:\n"                 # NaN fails
        "        raise ValueError\n"
        "    if x > TOL.bound:\n"                      # warns, does not raise
        "        warn()\n"
    )
    assert list(_nan_blind_gates(tree)) == [2, 4]


def test_nan_blind_gate_rule_flags_a_float_parameter():
    tree = ast.parse(
        "def check(x: float, y: float | None, n: int):\n"
        "    if x < 0:\n"                     # line 2: NaN passes
        "        raise ValueError\n"
        "    if abs(complex(y).imag) > 1e-12:\n"  # line 4: NaN passes
        "        raise ValueError\n"
        "    if not x >= 0:\n"                # NaN fails
        "        raise ValueError\n"
        "    if n < 1:\n"                     # an int is never NaN
        "        raise ValueError\n"
        "    def inner(z: float):\n"
        "        if x > z:\n"                 # line 11: both in scope
        "            raise ValueError\n"
    )
    assert list(_nan_blind_gates(tree)) == [2, 4, 11]


def test_every_tolerance_gate_fails_on_nan():
    blind = [f"{module}:{line}" for module, tree in TREES.items()
             for line in _nan_blind_gates(tree)]
    assert blind == []


_FILTERS = {"simplefilter", "filterwarnings", "catch_warnings"}


def _warning_filters(tree: ast.Module):
    """Line of every call of warnings.simplefilter, filterwarnings or
    catch_warnings, by attribute or by a name imported from warnings."""
    imported = {alias.asname or alias.name for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and node.module == "warnings"
                for alias in node.names if alias.name in _FILTERS}
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and (
                isinstance(node.func, ast.Attribute) and node.func.attr in _FILTERS
                and getattr(node.func.value, "id", None) == "warnings"
                or getattr(node.func, "id", None) in imported):
            yield node.lineno


def test_warning_filter_rule_flags_each_call():
    tree = ast.parse(
        "import warnings\n"
        "from warnings import catch_warnings as cw\n"
        "with warnings.catch_warnings():\n"          # line 3
        "    warnings.simplefilter('ignore')\n"      # line 4
        "warnings.filterwarnings('error')\n"         # line 5
        "with cw():\n"                               # line 6
        "    warnings.warn('shown')\n"               # not a filter
    )
    assert sorted(_warning_filters(tree)) == [3, 4, 5, 6]


def test_no_module_sets_warning_filters():
    # the caller's filters decide what is shown: the CLI prints each warning,
    # a test turns it into an error
    filters = [f"{module}:{line}" for module, tree in TREES.items()
               for line in _warning_filters(tree)]
    assert filters == []
