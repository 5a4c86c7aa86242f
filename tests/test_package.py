"""Rules that hold across every module of the package: which errors mean
unusable input, which libraries the code may import, and which Python
grammar it may use."""

import ast
import importlib
import inspect
import pkgutil
import re
import sys
from pathlib import Path

import codeflow
from codeflow.cli import BadFlags
from codeflow.errors import DataError
from codeflow.model import NonFiniteLoss, ShapeMismatch
from codeflow.pretrain import DivergedLoss, EmptyCounts

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


def test_modules_parse_at_the_declared_python_floor():
    # `feature_version` makes the parser reject grammar newer than the floor
    # that pyproject.toml declares, such as `except*` under 3.10
    pyproject = (Path(__file__).parents[1] / "pyproject.toml").read_text(encoding="utf-8")
    major, minor = map(int, re.search(r'requires-python = ">=(\d+)\.(\d+)"', pyproject).groups())
    for module in [codeflow, *package_modules()]:
        ast.parse(Path(module.__file__).read_text(encoding="utf-8"), feature_version=(major, minor))
