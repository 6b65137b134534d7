"""Every option has a caller, and every default a caller that relies on it.

For each function parameter and record field with a default in
``src/dquant``, some call in ``src/dquant`` must pass it,
by keyword or by position past its index, and some such call must leave it
out: a default that no call relies on should be a required parameter.
Calls are matched by the function's or class's name (a call to a class
sets its ``__init__`` parameters, or its fields when it is a record);
``cls(...)`` inside a classmethod is a call to the class. An option that
only a test sets is listed in ``TEST_ONLY`` with the test that sets it; a
default that every call passes is listed in ``ALWAYS_PASSED`` with the
reason it stays.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "dquant"
CALLERS = sorted(SRC.rglob("*.py"))

#: option -> the test that sets it (path::[class::]function, whose calls are searched)
TEST_ONLY = {
    "cli.main(argv)": "tests/test_cli.py::TestInvert::test_vacuum",
    "boson_algebra.BosonicPolynomial.isclose(tol)":
        "tests/test_boson_algebra.py::test_conjugation_symmetry",
}

#: option -> why it keeps a default that every call passes (none does)
ALWAYS_PASSED = {}


def _is_record(cls: ast.ClassDef) -> bool:
    return any(getattr(d.func if isinstance(d, ast.Call) else d, "id", None) == "record"
               for d in cls.decorator_list)


def _options(path: Path):
    """(key, call name, positional index or None, keyword) per defaulted option."""
    module = ".".join(path.relative_to(SRC).with_suffix("").parts)
    tree = ast.parse(path.read_text())

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                if _is_record(child):
                    fields = [st for st in child.body if isinstance(st, ast.AnnAssign)]
                    for i, st in enumerate(fields):
                        if st.value is not None:
                            key = f"{module}.{child.name}({st.target.id})"
                            yield key, child.name, i, st.target.id
                yield from visit(child, scope + [child])
            elif isinstance(child, ast.FunctionDef):
                args = child.args
                positional = args.posonlyargs + args.args
                method = bool(scope) and isinstance(scope[-1], ast.ClassDef) and not any(
                    isinstance(d, ast.Name) and d.id == "staticmethod"
                    for d in child.decorator_list)
                offset = 1 if method else 0
                name = scope[-1].name if method and child.name == "__init__" else child.name
                qual = ".".join([n.name for n in scope] + [child.name])
                first = len(positional) - len(args.defaults)
                for i, arg in enumerate(positional[first:], start=first):
                    yield f"{module}.{qual}({arg.arg})", name, i - offset, arg.arg
                for arg, default in zip(args.kwonlyargs, args.kw_defaults):
                    if default is not None:
                        yield f"{module}.{qual}({arg.arg})", name, None, arg.arg
                yield from visit(child, scope + [child])

    return list(visit(tree, []))


def _calls(tree: ast.AST):
    """(called name, positional count, keywords) of every call in ``tree``."""

    def visit(node, cls_name):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call):
                func = child.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if name == "cls":  # a classmethod constructing its class
                    name = cls_name
                yield name, len(child.args), {k.arg for k in child.keywords}
            yield from visit(child, child.name if isinstance(child, ast.ClassDef) else cls_name)

    return visit(tree, None)


def _passes(keywords: set, n: int, index, keyword: str) -> bool:
    return keyword in keywords or (index is not None and n > index)


def _sets(calls, name: str, index, keyword: str) -> bool:
    return any(called == name and _passes(keywords, n, index, keyword)
               for called, n, keywords in calls)


def _relies(calls, name: str, index, keyword: str) -> bool:
    return any(called == name and not _passes(keywords, n, index, keyword)
               for called, n, keywords in calls)


OPTIONS = [option for path in sorted(SRC.rglob("*.py")) for option in _options(path)]
CALLS = [call for path in CALLERS for call in _calls(ast.parse(path.read_text()))]


def test_every_option_is_set_by_a_caller():
    unset = [key for key, name, index, keyword in OPTIONS
             if key not in TEST_ONLY and not _sets(CALLS, name, index, keyword)]
    assert unset == [], "options no caller in src/dquant sets"


def test_every_default_is_relied_on_by_a_caller():
    unused = [key for key, name, index, keyword in OPTIONS
              if key not in ALWAYS_PASSED and not _relies(CALLS, name, index, keyword)]
    assert unused == [], "defaults every call in src/dquant overrides"


def test_always_passed_defaults_have_no_relying_caller():
    # one test over the whole table, which may be empty
    options = {o[0]: o for o in OPTIONS}
    for key in ALWAYS_PASSED:
        assert key in options, f"{key} is no longer an option"
        _, name, index, keyword = options[key]
        assert not _relies(CALLS, name, index, keyword), f"{key} now has a relying caller"


@pytest.mark.parametrize("key", sorted(TEST_ONLY))
def test_test_only_option_is_set_by_its_test_alone(key):
    option = {o[0]: o for o in OPTIONS}.get(key)
    assert option is not None, f"{key} is no longer an option"
    _, name, index, keyword = option
    assert not _sets(CALLS, name, index, keyword), f"{key} now has a caller: drop its entry"
    path, *names = TEST_ONLY[key].split("::")
    assert names[-1].startswith("test_"), f"{TEST_ONLY[key]} is not a test"
    node = ast.parse((ROOT / path).read_text())
    for part in names:
        node = next(child for child in ast.walk(node)
                    if isinstance(child, (ast.ClassDef, ast.FunctionDef)) and child.name == part)
    assert _sets(list(_calls(node)), name, index, keyword), f"{TEST_ONLY[key]} does not set it"
