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
from pathlib import Path

import codeflow
from codeflow.cli import BadFlags
from codeflow.errors import DataError
from codeflow.model import DivergedLoss, NonFiniteLoss, ShapeMismatch
from codeflow.pretrain import EmptyCounts

# The errors that are not about unusable input: bad flags (exit 1), a loss
# that is not finite (exit 3), and two internal contracts that no command-line
# input reaches, which stay loud.
NOT_DATA_ERRORS = {BadFlags, NonFiniteLoss, DivergedLoss, ShapeMismatch, EmptyCounts}


def package_modules():
    return [importlib.import_module(m.name) for m in pkgutil.walk_packages(codeflow.__path__, "codeflow.")]


def test_every_input_error_is_a_data_error():
    defined = [
        cls
        for module in package_modules()
        for _, cls in inspect.getmembers(module, inspect.isclass)
        if issubclass(cls, BaseException) and cls.__module__ == module.__name__
    ]
    assert {DataError, *NOT_DATA_ERRORS} <= set(defined)
    assert [cls.__qualname__ for cls in defined if not issubclass(cls, DataError) and cls not in NOT_DATA_ERRORS] == []
    assert issubclass(DivergedLoss, NonFiniteLoss)


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
