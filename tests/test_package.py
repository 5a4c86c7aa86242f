"""Rules that hold across every module of the package: which errors mean
unusable input, which libraries the code may import, where each imported
name comes from, and which Python grammar it may use."""

import ast
import importlib
import importlib.util
import inspect
import pkgutil
import re
import sys
from collections import Counter
from pathlib import Path

import codeflow
from codeflow.cli import BadFlags
from codeflow.errors import DataError
from codeflow.model import NonFiniteLoss

# The errors that are not about unusable input: bad flags (exit 1) and a loss
# that is not finite (exit 3).
NOT_DATA_ERRORS = {BadFlags, NonFiniteLoss}


def package_modules():
    return [importlib.import_module(m.name) for m in pkgutil.walk_packages(codeflow.__path__, "codeflow.")]


def module_of(path: Path):
    """The package module whose source file is `path`."""
    parts = path.relative_to(Path(__file__).parents[1] / "src").with_suffix("").parts
    return importlib.import_module(".".join(parts[:-1] if parts[-1] == "__init__" else parts))


def defined_names(test) -> set[tuple[str, str]]:
    """``(module, name)`` of each top-level class or function, as `test`
    picks them, that the imported package modules define."""
    return {
        (module.__name__, name)
        for module in [codeflow, *package_modules()]
        for name, obj in vars(module).items()
        if test(obj) and obj.__module__ == module.__name__
    }


def all_modules() -> set[str]:
    return {"codeflow", *(module.__name__ for module in package_modules())}


def exception_classes() -> list[type]:
    return [
        cls
        for module in package_modules()
        for _, cls in inspect.getmembers(module, inspect.isclass)
        if issubclass(cls, BaseException) and cls.__module__ == module.__name__
    ]


def test_every_input_error_is_a_data_error():
    defined = exception_classes()
    assert {DataError, *NOT_DATA_ERRORS} <= set(defined)
    assert [cls.__qualname__ for cls in defined if not issubclass(cls, DataError) and cls not in NOT_DATA_ERRORS] == []


def test_every_exception_class_is_caught_by_name():
    # A class that no handler names tells a caller nothing that its base class
    # and its message do not: raise the base class instead. Each class the
    # package defines is named in an `except` of the package or the benchmark.
    root = Path(__file__).parents[1]
    caught = set()
    for path in [*(root / "src").rglob("*.py"), *(root / "perfbench").rglob("*.py")]:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ExceptHandler) and node.type is not None:
                caught |= {n.id for n in ast.walk(node.type) if isinstance(n, ast.Name)}
                caught |= {n.attr for n in ast.walk(node.type) if isinstance(n, ast.Attribute)}
    assert [cls.__qualname__ for cls in exception_classes() if cls.__name__ not in caught] == []


def test_modules_import_only_the_standard_library_and_numpy():
    for module in [codeflow, *package_modules()]:
        for node in ast.walk(ast.parse(Path(module.__file__).read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            foreign = {name.split(".")[0] for name in names} - sys.stdlib_module_names - {"numpy"}
            assert not foreign, (module.__name__, sorted(foreign))


def test_every_imported_class_or_function_names_its_defining_module():
    # One import path per name: `from .frontend import parse_source` would
    # hide that `frontend.parser` defines it. Lazy imports inside functions
    # count too.
    for module in [codeflow, *package_modules()]:
        for node in ast.walk(ast.parse(Path(module.__file__).read_text(encoding="utf-8"))):
            if not isinstance(node, ast.ImportFrom):
                continue
            source = importlib.util.resolve_name("." * node.level + (node.module or ""), module.__package__)
            if source.partition(".")[0] != "codeflow":
                continue
            for alias in node.names:
                obj = getattr(importlib.import_module(source), alias.name)
                if inspect.isclass(obj) or inspect.isfunction(obj):
                    where = f"{module.__file__}:{node.lineno}"
                    assert obj.__module__ == source, f"{where} imports {alias.name} from {source}, not {obj.__module__}"


def test_packages_re_export_nothing():
    # `codeflow.frontend.FrontendError` stays bound: the benchmark's tracer
    # reads it there to count rejected programs.
    def bound(package):
        return {name for name in vars(package) if not (name.startswith("__") or inspect.ismodule(getattr(package, name)))}

    assert bound(codeflow) == set()
    assert bound(importlib.import_module("codeflow.frontend")) == {"FrontendError"}
    assert codeflow.__version__


def test_modules_parse_at_the_declared_python_floor():
    # `feature_version` makes the parser reject grammar newer than the floor
    # that pyproject.toml declares, such as `except*` under 3.10
    pyproject = (Path(__file__).parents[1] / "pyproject.toml").read_text(encoding="utf-8")
    major, minor = map(int, re.search(r'requires-python = ">=(\d+)\.(\d+)"', pyproject).groups())
    for module in [codeflow, *package_modules()]:
        ast.parse(Path(module.__file__).read_text(encoding="utf-8"), feature_version=(major, minor))



def test_every_definition_has_a_caller():
    # A top-level function or class that only unit tests use is dead code:
    # each one is named, outside its own definition, by the package, the
    # benchmark (whose tracer names what it wraps in strings) or the
    # acceptance tests.
    root = Path(__file__).parents[1]
    package = sorted((root / "src" / "codeflow").rglob("*.py"))
    statements = []  # (file, top-level statement, the names it mentions)
    for path in [*package, *sorted((root / "perfbench").rglob("*.py")), root / "tests" / "test_acceptance.py"]:
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
            names = set()
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute):
                    names.add(node.attr)
                elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                    names.add(node.value)
            statements.append((path, stmt, names))
    definitions = [
        (path, stmt) for path, stmt, _ in statements if path in package and isinstance(stmt, (ast.FunctionDef, ast.ClassDef))
    ]
    # the walk reached every module, and every class and function they define
    assert {module_of(path).__name__ for path in package} == all_modules()
    assert {(module_of(path).__name__, stmt.name) for path, stmt in definitions} == defined_names(
        lambda obj: inspect.isclass(obj) or inspect.isfunction(inspect.unwrap(obj))  # a cached one too
    )
    unused = [
        f"{path.relative_to(root)}:{stmt.lineno} {stmt.name}"
        for path, stmt in definitions
        if not any(stmt.name in names for _, other, names in statements if other is not stmt)
    ]
    assert unused == []


def test_every_method_has_a_caller():
    # A method or property that only unit tests use is dead code too: each
    # one is read as an attribute, or named in a string, outside its own body
    # by the package, the benchmark or the acceptance tests. Special methods,
    # which Python itself calls, and overrides of a base class's method, which
    # the base class calls, are exempt.
    root = Path(__file__).parents[1]
    package = sorted((root / "src" / "codeflow").rglob("*.py"))
    sources = [*package, *sorted((root / "perfbench").rglob("*.py")), root / "tests" / "test_acceptance.py"]

    def names_read(tree) -> Counter:
        return Counter(
            node.attr if isinstance(node, ast.Attribute) else node.value
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) or (isinstance(node, ast.Constant) and isinstance(node.value, str))
        )

    trees = {path: ast.parse(path.read_text(encoding="utf-8")) for path in sources}
    reads = sum((names_read(tree) for tree in trees.values()), Counter())
    classes, unused = set(), []
    for path in package:
        module = module_of(path)
        for cls in (stmt for stmt in trees[path].body if isinstance(stmt, ast.ClassDef)):
            classes.add((module.__name__, cls.name))
            bases = inspect.getmro(getattr(module, cls.name))[1:]
            for method in cls.body:
                if not isinstance(method, ast.FunctionDef) or re.fullmatch(r"__\w+__", method.name):
                    continue
                if any(hasattr(base, method.name) for base in bases):
                    continue
                if reads[method.name] == names_read(method)[method.name]:
                    unused.append(f"{path.relative_to(root)}:{method.lineno} {cls.name}.{method.name}")
    # the walk reached every module and every class they define
    assert {module_of(path).__name__ for path in package} == all_modules()
    assert classes == defined_names(inspect.isclass)
    assert unused == []
