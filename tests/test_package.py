"""The package surface: every public name, its home module, and how it loads."""

import ast
import importlib
import re
import sys
from pathlib import Path

import pytest

import linkstat

SUBMODULES = ("model", "statics", "modeswitch", "paramfile", "compare", "design")


def test_name_table_is_the_union_of_the_submodules_all():
    homes = {}
    for module in SUBMODULES:
        names = importlib.import_module(f"linkstat.{module}").__all__
        assert homes.keys().isdisjoint(names), module  # one home per name
        homes.update(dict.fromkeys(names, module))
    assert linkstat._HOMES == homes
    assert linkstat.__all__ == sorted([*homes, "__version__"])


def test_every_public_name_is_its_home_modules_object():
    for name, module in linkstat._HOMES.items():
        home = importlib.import_module(f"linkstat.{module}")
        assert getattr(linkstat, name) is getattr(home, name), name
    from linkstat import optimize_design

    assert optimize_design is sys.modules["linkstat.design"].optimize_design
    for module in SUBMODULES:
        assert getattr(linkstat, module) is sys.modules[f"linkstat.{module}"]


def test_star_import_in_a_fresh_interpreter_binds_exactly_all(run_child):
    code = (
        "import json\n"
        "ns = {}\n"
        "exec('from linkstat import *', ns)\n"
        "del ns['__builtins__']\n"
        "print(json.dumps(sorted(ns)))\n"
    )
    assert run_child(code) == linkstat.__all__


def test_private_submodule_names_are_not_package_attributes():
    with pytest.raises(AttributeError, match="'_decide_all'"):
        linkstat._decide_all


def test_dir_lists_every_public_name():
    assert set(linkstat.__all__) <= set(dir(linkstat))


def test_type_checkers_see_every_home_module():
    """The TYPE_CHECKING block star-imports each module the name table names."""
    tree = ast.parse(Path(linkstat.__file__).read_text(encoding="utf-8"))
    (block,) = [node for node in tree.body if isinstance(node, ast.If)
                and isinstance(node.test, ast.Name) and node.test.id == "TYPE_CHECKING"]
    starred = {node.module for node in block.body
               if isinstance(node, ast.ImportFrom) and node.level == 1
               and [alias.name for alias in node.names] == ["*"]}
    assert starred == set(linkstat._HOMES.values())


def test_sources_parse_at_the_python_floor():
    """Every module parses as the oldest Python that pyproject.toml admits."""
    package = Path(linkstat.__file__).resolve().parent
    pyproject = (package.parent.parent / "pyproject.toml").read_text(encoding="utf-8")
    floor = re.search(r'^requires-python = ">=(\d+)\.(\d+)"$', pyproject, re.M)
    assert floor is not None, "requires-python has no >=X.Y floor"
    version = (int(floor[1]), int(floor[2]))
    for path in sorted(package.glob("*.py")):
        ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=version)
    with pytest.raises(SyntaxError):  # 3.11 syntax: the floor is enforced
        ast.parse("try:\n    pass\nexcept* ValueError:\n    pass\n", feature_version=version)


def test_comparison_names_still_resolve_on_paramfile():
    """The comparison moved to linkstat.compare; linkstat.paramfile.X still works."""
    import linkstat.compare
    import linkstat.paramfile

    for name in linkstat.compare.__all__:
        assert getattr(linkstat.paramfile, name) is getattr(linkstat.compare, name), name
    from linkstat.paramfile import compare_measurements

    assert compare_measurements is linkstat.compare.compare_measurements
    with pytest.raises(AttributeError, match="'no_such_name'"):
        linkstat.paramfile.no_such_name


def test_comparison_runs_no_import_per_call():
    """compare_measurements finds the kernel among its module's globals."""
    import linkstat.compare

    tree = ast.parse(Path(linkstat.compare.__file__).read_text(encoding="utf-8"))
    (function,) = [node for node in tree.body if isinstance(node, ast.FunctionDef)
                   and node.name == "compare_measurements"]
    assert not [node for node in ast.walk(function)
                if isinstance(node, (ast.Import, ast.ImportFrom))]
