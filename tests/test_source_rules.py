"""The library stays pure Python with exact arithmetic: checked on its source."""

import ast
import sys
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "glci").glob("*.py"))
TESTS = sorted(Path(__file__).resolve().parent.glob("*.py"))


def test_library_imports_only_stdlib_and_uses_no_floats():
    assert SOURCES
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            where = f"{path.name}:{getattr(node, 'lineno', '?')}"
            if isinstance(node, ast.Import):
                roots = [alias.name.split(".")[0] for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                roots = [node.module.split(".")[0]]
            else:
                roots = []
            for root in roots:
                assert root in sys.stdlib_module_names or root == "glci", (where, root)
            assert not (
                isinstance(node, ast.Constant) and isinstance(node.value, (float, complex))
            ), f"{where}: floating-point literal"
            assert not (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "float"
            ), f"{where}: float() call"


INTEGER_ONLY_MODULES = (
    "algebra.py",
    "coxeter.py",
    "grading.py",
    "linalg.py",
    "matfac.py",
    "suite.py",
)


@pytest.mark.parametrize("module", INTEGER_ONLY_MODULES)
def test_module_is_integer_only(module):
    """The grading group, the interval algebras' structure constants, both
    Coxeter routes, the exact elimination, the matrix factorizations and the
    suite's box scan compute over the integers, never over Q."""
    path = next(p for p in SOURCES if p.name == module)
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [node.module or ""]
        else:
            continue
        assert all(name.split(".")[0] != "fractions" for name in names), node.lineno


def test_every_module_level_definition_is_used():
    """Each top-level function and class in the library is named somewhere
    in the library or its tests besides its own definition."""
    named = set()
    for path in SOURCES + TESTS:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
            elif isinstance(node, ast.alias):
                named.add(node.name)
    unused = [
        f"{path.name}:{node.lineno} {node.name}"
        for path in SOURCES
        for node in ast.parse(path.read_text(), filename=str(path)).body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and node.name not in named
    ]
    assert not unused, unused


def test_every_defaulted_parameter_is_set():
    """Each defaulted parameter of a top-level library function is passed,
    by keyword or by position, by some call in the library or its tests.
    A function named other than as a callee (kept in a table, handed to
    another function) is exempt, since its call sites cannot be seen."""
    trees = [ast.parse(path.read_text(), filename=str(path)) for path in SOURCES + TESTS]
    callees = set()
    calls: dict[str, list[ast.Call]] = {}
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                callees.add(id(func))
                calls.setdefault(name, []).append(node)
    referenced = {
        node.id if isinstance(node, ast.Name) else node.attr
        for tree in trees
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute)) and id(node) not in callees
    }
    unset = []
    for path, tree in zip(SOURCES, trees):
        for fn in tree.body:
            if not isinstance(fn, ast.FunctionDef) or fn.name in referenced:
                continue
            positional = fn.args.posonlyargs + fn.args.args
            defaulted = [
                (positional.index(arg), arg.arg)
                for arg in positional[len(positional) - len(fn.args.defaults) :]
            ] + [
                (None, arg.arg)
                for arg, default in zip(fn.args.kwonlyargs, fn.args.kw_defaults)
                if default is not None
            ]
            for position, name in defaulted:
                if not any(
                    any(isinstance(a, ast.Starred) for a in call.args)
                    or any(k.arg in (None, name) for k in call.keywords)
                    or (position is not None and position < len(call.args))
                    for call in calls.get(fn.name, [])
                ):
                    unset.append(f"{path.name}:{fn.lineno} {fn.name}({name})")
    assert not unset, unset


def _module_tree(module):
    path = next(p for p in SOURCES if p.name == module)
    return ast.parse(path.read_text(), filename=str(path))


def test_box_scan_oracle_is_independent_of_classify():
    """The suite's box scan checks `classify.enumerate_weight_systems`, so
    its body names nothing `classify` defines and calls no enumerator:
    otherwise the two could agree by sharing a fault."""
    defined = {"classify", "enumerate_weight_systems"}
    for node in _module_tree("classify.py").body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defined.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            defined.update(n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name))
    oracle = next(
        node
        for node in _module_tree("suite.py").body
        if isinstance(node, ast.FunctionDef) and node.name == "boxed_enumeration_oracle"
    )
    used = [
        (node.lineno, name)
        for node in ast.walk(oracle)
        for name in (getattr(node, "id", None), getattr(node, "attr", None))
        if name in defined
    ]
    assert not used, used


# Top-level definitions that may name `Fraction`: the output edge of the
# fractional Calabi-Yau data.  Degrees everywhere are integers scaled by lcm(p_i).
FRACTION_SITES = {
    "classify.py": {"FracCY", "frac_cy"},
}


@pytest.mark.parametrize("module", sorted(FRACTION_SITES))
def test_fraction_is_named_only_at_its_sites(module):
    named = {
        getattr(node, "name", f"line {node.lineno}")
        for node in _module_tree(module).body
        if not isinstance(node, (ast.Import, ast.ImportFrom))
        and any(
            "Fraction" in (getattr(sub, "id", None), getattr(sub, "attr", None))
            for sub in ast.walk(node)
        )
    }
    assert named == FRACTION_SITES[module]


def test_char_poly_route_names_nothing_of_the_product_route():
    """`char_poly` reduces whatever integer matrix it is given: it names
    neither the phi factors nor the subsets that index the omega blocks, so
    the matrix route cannot agree with the product route by sharing its
    structure."""
    banned = {"phi", "_phi_sorted", "omega_action_blocks", "_weight_subsets"}
    routes = {
        node.name: node
        for node in _module_tree("coxeter.py").body
        if isinstance(node, ast.FunctionDef)
        and node.name == "char_poly"
    }
    assert sorted(routes) == ["char_poly"]
    used = [
        (fn.name, node.lineno, name)
        for fn in routes.values()
        for node in ast.walk(fn)
        for name in (getattr(node, "id", None), getattr(node, "attr", None))
        if name in banned
    ]
    assert not used, used


def test_char_poly_is_called_only_by_the_matrix_route_check():
    """One check of the matrix route: `coxeter.matrix_route_check` is the
    only library code that calls `char_poly`, so `glci coxeter
    --check-matrix` and the suite's `coxeter` battery run the same check."""
    callers = [
        (path.name, getattr(node, "name", f"line {node.lineno}"))
        for path in SOURCES
        for node in ast.parse(path.read_text(), filename=str(path)).body
        for call in ast.walk(node)
        if isinstance(call, ast.Call)
        and "char_poly" in (getattr(call.func, "id", None), getattr(call.func, "attr", None))
    ]
    assert callers == [("coxeter.py", "matrix_route_check")]


def test_mf_checks_are_called_only_by_the_matfac_loop():
    """One build -> verify -> minor loop: `matfac.mf_pairs` is the only
    library code that calls `mf_build`, `mf_verify` or
    `mf_minor_nonsingular`, so `glci mf` and the suite's `mf` battery check
    each pair alike and share each system's work the same way."""
    checks = {"mf_build", "mf_verify", "mf_minor_nonsingular"}
    callers = {
        (path.name, getattr(node, "name", f"line {node.lineno}"), name)
        for path in SOURCES
        for node in ast.parse(path.read_text(), filename=str(path)).body
        for call in ast.walk(node)
        if isinstance(call, ast.Call)
        for name in (getattr(call.func, "id", None), getattr(call.func, "attr", None))
        if name in checks
    }
    assert callers == {("matfac.py", "mf_pairs", name) for name in checks}


def test_suite_builds_results_and_catches_failed_invariants_in_one_place():
    """Every battery runs through `suite.per_system`'s loop, so `suite.py`
    constructs `CheckResult` once and handles `AssertionError` once: a
    failed invariant fails its own check in every battery alike."""
    tree = _module_tree("suite.py")
    builds = [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "CheckResult"
    ]
    handlers = [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.ExceptHandler)
        and node.type is not None
        and any(getattr(sub, "id", None) == "AssertionError" for sub in ast.walk(node.type))
    ]
    assert len(builds) == 1 and len(handlers) == 1, (builds, handlers)


# What the library keeps for the life of the process: per-n or per-weights
# constants and the parser, and two tables of checks filled at import.
PROCESS_LIFETIME_CACHES = {
    "cli.build_parser",
    "coxeter._phi_exponents",
    "coxeter._phi_sorted",
    "matfac._incidence",
    "matfac._evaluation_points",
}
READ_ONLY_TABLES = {"suite.ENUMERATION_CLAIMS", "suite.BATTERIES"}


def _callee(node):
    node = node.func if isinstance(node, ast.Call) else node
    return node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)


def _is_dict(node):
    makers = {"dict", "defaultdict", "OrderedDict", "Counter"}
    return isinstance(node, (ast.Dict, ast.DictComp)) or (
        isinstance(node, ast.Call) and _callee(node) in makers
    )


def test_no_memo_outlives_its_call():
    """A memo keyed on a system, a pair or an algebra lives no longer than
    the call, loop or object it serves: only the pinned per-n and
    per-weights caches are process-wide.  A benchmark runs many passes in
    one process, and a memo that outlived its call would make later passes
    measure another program than a fresh `glci` run.  Checked on
    `functools.cache` and `lru_cache` at module and class level, on
    module-level and class-level dicts, and on dict defaults of parameters."""
    caches, tables, defaults, writes = set(), set(), [], []
    for path in SOURCES:
        module, tree = path.stem, ast.parse(path.read_text(), filename=str(path))
        classes = [node.body for node in ast.walk(tree) if isinstance(node, ast.ClassDef)]
        bodies = [tree.body] + classes
        for stmt in (stmt for body in bodies for stmt in body):
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if any(_callee(d) in ("cache", "lru_cache") for d in stmt.decorator_list):
                    caches.add(f"{module}.{stmt.name}")
            elif isinstance(stmt, (ast.Assign, ast.AnnAssign)) and stmt.value is not None:
                if _is_dict(stmt.value):
                    targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
                    tables.update(f"{module}.{t.id}" for t in targets if isinstance(t, ast.Name))
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                args = node.args
                if any(d is not None and _is_dict(d) for d in args.defaults + args.kw_defaults):
                    defaults.append(f"{path.name}:{node.lineno}")
            table = None
            if isinstance(node, ast.Subscript) and not isinstance(node.ctx, ast.Load):
                table = node.value
            elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                if node.func.attr in {"__setitem__", "setdefault", "update", "pop", "clear"}:
                    table = node.func.value
            if table is not None and f"suite.{_callee(table)}" in READ_ONLY_TABLES:
                writes.append(f"{path.name}:{node.lineno}")
    assert caches == PROCESS_LIFETIME_CACHES
    assert tables == READ_ONLY_TABLES
    assert not defaults and not writes, (defaults, writes)
