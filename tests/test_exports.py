"""Module hygiene: every export resolves and has a caller, every import is used and
at module level, every option is set, and every function the benchmark tracer wraps exists.

Each ``purespin`` module is parsed with ``ast``.  A name listed in
``__all__`` must exist on the imported module, and a name bound by an import
statement must occur somewhere else in the module, as an identifier or as a
word inside a string (string annotations, ``__all__`` re-exports).  No
import statement may sit inside a function.

A parameter with a default must be passed, by keyword or by position, at one
or more call sites in ``src/``, ``tests/`` or ``bench/``; otherwise it is a
constant written as an option.  Calls are resolved by the called name alone
(``f(...)`` and ``obj.f(...)`` both count for every function named ``f``), and
a constructor call counts for the class's ``__init__``.  The defaults that
only ``tests/`` set must be those ``TEST_ONLY_DEFAULTS`` names, each with its
reason.

A name listed in ``__all__`` must be referenced, as an ``ast.Name`` or
``ast.Attribute``, in some ``src/purespin`` module outside its own top-level
definition, or be named in ``bench/`` (as an identifier, or as a word of a
``layertrace.TRACED`` string); ``EXPORT_ALLOWLIST`` names the exceptions, each
with its reason.  Likewise a public method of a ``src/purespin`` class must be
referenced by its name in ``src/purespin`` outside its own body, or be named in
``bench/``; ``METHOD_ALLOWLIST`` names the exceptions.  A method counts as
referenced only through an ``ast.Attribute``, since it is reached as one.
Code that only tests run belongs in ``tests/oracles.py``.
"""

import ast
import importlib
import importlib.util
import math
import pkgutil
import re
from pathlib import Path

import pytest

import purespin

MODULES = sorted(
    ["purespin"] + [f"purespin.{m.name}" for m in pkgutil.iter_modules(purespin.__path__)])
ROOT = Path(__file__).resolve().parents[1]


def _tree(name: str) -> ast.Module:
    module = importlib.import_module(name)
    return ast.parse(Path(module.__file__).read_text(encoding="utf-8"))


def _exports(tree: ast.Module) -> list[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return list(ast.literal_eval(node.value))
    return []


def _imported_names(tree: ast.Module) -> list[str]:
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names += [(a.asname or a.name).split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names += [a.asname or a.name for a in node.names]
    return names


def _used_words(tree: ast.Module) -> set[str]:
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            used.update(re.findall(r"\w+", node.value))
    return used


@pytest.mark.parametrize("name", MODULES)
def test_all_entries_resolve(name):
    module = importlib.import_module(name)
    missing = [entry for entry in _exports(_tree(name)) if not hasattr(module, entry)]
    assert not missing, f"{name}.__all__ names undefined {missing}"


@pytest.mark.parametrize("name", MODULES)
def test_imports_are_used(name):
    tree = _tree(name)
    used = _used_words(tree)
    unused = [n for n in _imported_names(tree) if n not in used]
    assert not unused, f"{name} imports unused names {unused}"


def _nested_imports(tree: ast.Module) -> list[str]:
    """``function:line`` of each import statement inside a function body."""
    return sorted({f"{fn.name}:{node.lineno}" for fn in ast.walk(tree)
                   if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
                   for node in ast.walk(fn) if isinstance(node, (ast.Import, ast.ImportFrom))})


@pytest.mark.parametrize("name", MODULES)
def test_imports_are_at_module_level(name):
    nested = _nested_imports(_tree(name))
    assert not nested, f"{name} imports inside functions at {nested}"


def test_nested_import_check_catches_defects():
    tree = ast.parse("import os\ndef f():\n    from x import y\n    return y\n"
                     "class K:\n    def m(self):\n        import z\n")
    assert _nested_imports(tree) == ["f:3", "m:7"]


def test_checks_catch_defects():
    tree = ast.parse('import os\nfrom x import y, z\n__all__ = ["gone"]\nprint(z, "use y")\n')
    used = _used_words(tree)
    assert [n for n in _imported_names(tree) if n not in used] == ["os"]
    assert _exports(tree) == ["gone"]


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"))


def _defaulted(tree: ast.Module) -> list[tuple[str, str, int | None]]:
    """(function, parameter, position) for each parameter with a default.

    ``position`` is the parameter's index among the arguments a call passes
    positionally (self or cls not counted), None for a keyword-only one.
    The parameters of ``__init__`` are listed under the class name, which is
    what a constructor call names.
    """
    owner = {id(fn): cls for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
             for fn in cls.body}
    out = []
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        cls = owner.get(id(fn))
        bound = int(cls is not None and not any(
            isinstance(d, ast.Name) and d.id == "staticmethod" for d in fn.decorator_list))
        name = cls.name if cls is not None and fn.name == "__init__" else fn.name
        args = fn.args.posonlyargs + fn.args.args
        first = len(args) - len(fn.args.defaults)
        out += [(name, a.arg, i - bound) for i, a in enumerate(args) if i >= first]
        out += [(name, a.arg, None)
                for a, d in zip(fn.args.kwonlyargs, fn.args.kw_defaults) if d is not None]
    return out


def _passed(trees) -> dict[str, tuple[set, float]]:
    """Per called name: the keywords some call passes and the most positional arguments.

    A ``**mapping`` argument is recorded as the keyword None and a ``*args``
    argument as unboundedly many positional arguments.
    """
    calls: dict[str, tuple[set, float]] = {}
    for tree in trees:
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
            if name is None:
                continue
            keywords, count = calls.get(name, (set(), 0))
            starred = any(isinstance(a, ast.Starred) for a in node.args)
            calls[name] = (keywords | {k.arg for k in node.keywords},
                           max(count, math.inf if starred else len(node.args)))
    return calls


def _unset(defaulted, calls) -> list[str]:
    out = []
    for fn, param, position in defaulted:
        keywords, count = calls.get(fn, (set(), 0))
        if not (param in keywords or None in keywords
                or (position is not None and count > position)):
            out.append(f"{fn}({param})")
    return out


def _set_only_by(defaulted, program_trees, test_trees) -> list[str]:
    """The defaults that calls in ``test_trees`` override and no call in ``program_trees`` does."""
    unset = set(_unset(defaulted, _passed(program_trees + test_trees)))
    return sorted(set(_unset(defaulted, _passed(program_trees))) - unset)


# Defaults that only tests set, with the reason each option stays.
TEST_ONLY_DEFAULTS = {
    "fd_exterior_derivative(h)": "the stencil is the tests' oracle; its tests halve the step to show O(h²)",
    "null_space(diagnostics)": "the rank margins of the purity decision, for the run trace (ROADMAP item 10)",
    "random_element(scale)": "the spread of the draw; tests sample near the identity and past the half turn",
}


def test_every_default_is_set_by_a_caller():
    defaulted = [d for path in sorted((ROOT / "src" / "purespin").glob("*.py"))
                 for d in _defaulted(_parse(path))]
    trees = {part: [_parse(path) for path in sorted((ROOT / part).rglob("*.py"))]
             for part in ("src", "tests", "bench")}
    unset = _unset(defaulted, _passed(trees["src"] + trees["tests"] + trees["bench"]))
    assert not unset, f"parameters whose default no call overrides: {unset}"
    test_only = _set_only_by(defaulted, trees["src"] + trees["bench"], trees["tests"])
    assert test_only == sorted(TEST_ONLY_DEFAULTS), (
        f"defaults only tests set (drop the option, or give the reason it stays): "
        f"{sorted(set(test_only) - set(TEST_ONLY_DEFAULTS))}; "
        f"listed defaults that a program call sets or that are gone: "
        f"{sorted(set(TEST_ONLY_DEFAULTS) - set(test_only))}")


def test_default_check_catches_defects():
    source = ast.parse(
        "def f(a, b=1, *, c=2): pass\n"
        "class K:\n"
        "    def __init__(self, x=0): pass\n"
        "    def m(self, y=1, z=2): pass\n"
        "    @staticmethod\n"
        "    def s(u, v=0): pass\n")
    calls = _passed([ast.parse("f(1, 2)\nK(x=3)\nk.m(4)\nK.s(5)\n")])
    assert _unset(_defaulted(source), calls) == ["f(c)", "m(z)", "s(v)"]


def test_test_only_default_check_catches_defects():
    source = ast.parse("def f(a, b=1, c=2, d=3): pass\n")
    program, tests = [ast.parse("f(1, 2)\n")], [ast.parse("f(1, c=3)\nf(0, b=1)\n")]
    assert _set_only_by(_defaulted(source), program, tests) == ["f(c)"]


def _unresolved_traced(traced: dict[str, list[str]]) -> list[str]:
    """Traced names with nothing to wrap, looked up as ``bench/layertrace.py`` installs them:
    ``Class.method`` in the class's own ``__dict__``, a plain name on its module."""
    out = []
    for module, names in traced.items():
        mod = importlib.import_module(f"purespin.{module}")
        for name in names:
            owner, _, attr = name.rpartition(".")
            found = (attr in vars(getattr(mod, owner, object)) if owner
                     else callable(getattr(mod, attr, None)))
            if not found:
                out.append(f"{module}.{name}")
    return out


def _traced() -> dict[str, list[str]]:
    spec = importlib.util.spec_from_file_location("layertrace", ROOT / "bench" / "layertrace.py")
    layertrace = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layertrace)
    return layertrace.TRACED


def test_traced_functions_resolve():
    # a rename of a traced function fails here rather than in a traced benchmark run
    unresolved = _unresolved_traced(_traced())
    assert not unresolved, f"traced names missing from purespin: {unresolved}"


def test_traced_check_catches_defects():
    traced = {"geometry": ["PinLift.forms_at", "PinLift.gone", "NoClass.forms_at", "gone"],
              "forms": ["fd_exterior_derivative", "FD_STEP"]}
    assert _unresolved_traced(traced) == ["geometry.PinLift.gone", "geometry.NoClass.forms_at",
                                          "geometry.gone", "forms.FD_STEP"]


# Exports that no command, no benchmark round and no other module runs yet, with the reason each stays.
EXPORT_ALLOWLIST: dict[str, str] = {}


def _references(tree: ast.Module) -> list[tuple[str, str | None]]:
    """(name, owner) of each ``ast.Name`` and ``ast.Attribute``, owner the top-level def or class around it."""
    out = []
    for top in tree.body:
        owner = getattr(top, "name", None)
        for node in ast.walk(top):
            if isinstance(node, ast.Name):
                out.append((node.id, owner))
            elif isinstance(node, ast.Attribute):
                out.append((node.attr, owner))
    return out


def _bench_words(trees, traced: dict[str, list[str]]) -> set[str]:
    """Identifiers of the benchmark's modules (names, attributes, imports) and the words of ``TRACED``."""
    words = {w for names in traced.values() for name in names for w in re.findall(r"\w+", name)}
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                words.add(node.id)
            elif isinstance(node, ast.Attribute):
                words.add(node.attr)
            elif isinstance(node, ast.alias):
                words.add(node.asname or node.name)
    return words


def _callerless(modules: dict[str, ast.Module], bench: set[str]) -> list[str]:
    """``module.name`` of each export referenced nowhere but in its own definition, nor by the benchmark."""
    refs = [(module, name, owner) for module, tree in modules.items()
            for name, owner in _references(tree)]
    return [f"{module}.{name}" for module, tree in modules.items() for name in _exports(tree)
            if name not in bench
            and not any(n == name and (m, o) != (module, name) for m, n, o in refs)]


def test_every_export_has_a_caller():
    modules = {path.stem: _parse(path) for path in sorted((ROOT / "src" / "purespin").glob("*.py"))}
    bench = _bench_words((_parse(path) for path in sorted((ROOT / "bench").glob("*.py"))), _traced())
    callerless = _callerless(modules, bench)
    assert sorted(callerless) == sorted(EXPORT_ALLOWLIST), (
        f"exports only tests reach (move them to tests/oracles.py): "
        f"{sorted(set(callerless) - set(EXPORT_ALLOWLIST))}; "
        f"allowlisted names that now have a caller: {sorted(set(EXPORT_ALLOWLIST) - set(callerless))}")


def test_export_check_catches_defects():
    modules = {
        "a": ast.parse('__all__ = ["used", "recursive", "traced", "cited", "lonely"]\n'
                       "def used(): pass\n"
                       "def recursive(n): return recursive(n - 1)\n"
                       "def traced(): pass\n"
                       "def cited(): pass\n"
                       "def lonely(): return lonely\n"),
        "b": ast.parse('__all__ = ["Kind"]\nfrom a import lonely\nclass Kind:\n'
                       "    def m(self): return used()\n"),
    }
    bench = _bench_words([ast.parse("from a import cited\n")], {"a": ["Kind.m", "traced"]})
    assert _callerless(modules, bench) == ["a.recursive", "a.lonely"]


# Public methods that no command, no benchmark round and no other method runs, with the reason each stays.
METHOD_ALLOWLIST: dict[str, str] = {}


def _unreferenced_methods(modules: dict[str, ast.Module], bench: set[str]) -> list[str]:
    """``module.Class.method`` of each public method whose name no ``ast.Attribute`` outside its
    own body references, and that the benchmark does not name.  A method is reached as an
    attribute (``obj.m``, ``cls.m``), so a bare name, a local variable say, does not count."""
    refs = [(node.attr, id(node)) for tree in modules.values() for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)]
    out = []
    for module, tree in modules.items():
        for cls in ast.walk(tree):
            if not isinstance(cls, ast.ClassDef):
                continue
            for fn in cls.body:
                if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)) or fn.name.startswith("_"):
                    continue
                inside = {id(node) for node in ast.walk(fn)}
                if fn.name not in bench and not any(
                        name == fn.name and node not in inside for name, node in refs):
                    out.append(f"{module}.{cls.name}.{fn.name}")
    return out


def test_every_public_method_has_a_caller():
    modules = {path.stem: _parse(path) for path in sorted((ROOT / "src" / "purespin").glob("*.py"))}
    bench = _bench_words((_parse(path) for path in sorted((ROOT / "bench").glob("*.py"))), _traced())
    unreferenced = _unreferenced_methods(modules, bench)
    assert sorted(unreferenced) == sorted(METHOD_ALLOWLIST), (
        f"public methods only tests reach (delete them, or move them to tests/oracles.py): "
        f"{sorted(set(unreferenced) - set(METHOD_ALLOWLIST))}; "
        f"allowlisted methods that now have a caller: {sorted(set(METHOD_ALLOWLIST) - set(unreferenced))}")


def test_method_check_catches_defects():
    modules = {
        "a": ast.parse("class K:\n"
                       "    def used(self): return self.helper()\n"
                       "    def helper(self): pass\n"
                       "    def recursive(self): return self.recursive()\n"
                       "    def traced(self): pass\n"
                       "    def lonely(self): pass\n"
                       "    def shadowed(self): pass\n"
                       "    def _private(self): pass\n"),
        "b": ast.parse("def f(k):\n    shadowed = k.used()\n    return shadowed\n"),
    }
    bench = _bench_words([], {"a": ["K.traced"]})
    assert _unreferenced_methods(modules, bench) == ["a.K.recursive", "a.K.lonely", "a.K.shadowed"]
