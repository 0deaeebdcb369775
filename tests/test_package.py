"""The package surface: every public name, its home module, and how it loads."""

import ast
import importlib
import inspect
import re
import sys
from pathlib import Path

import pytest

import linkstat

SUBMODULES = ("model", "statics", "oracle", "modeswitch", "roots", "paramfile", "readers",
              "compare", "design")


# Public functions and classes a submodule defines but does not export:
# the grid builder that cli, modeswitch, roots and design share.
UNEXPORTED = {("model", "sweep_grid")}


def test_export_table_is_each_submodules_all_and_its_public_definitions():
    """Each submodule's __all__ is its _EXPORTS entry; each name there is a
    function or class defined in that module, not imported into it; and each
    public function or class the module defines is listed, UNEXPORTED aside."""
    assert tuple(linkstat._EXPORTS) == SUBMODULES
    assert len(linkstat._HOMES) == sum(map(len, linkstat._EXPORTS.values()))  # one home per name
    for module, names in linkstat._EXPORTS.items():
        home = importlib.import_module(f"linkstat.{module}")
        assert home.__all__ is names, module
        defined = {name for name, value in vars(home).items()
                   if (inspect.isclass(value) or inspect.isfunction(value))
                   and value.__module__ == home.__name__}
        assert set(names) <= defined, module
        public = {name for name in defined if not name.startswith("_")}
        assert public - set(names) == {name for home_module, name in UNEXPORTED
                                       if home_module == module}, module
    assert linkstat.__all__ == sorted([*linkstat._HOMES, "__version__"])


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
    assert starred == set(linkstat._EXPORTS)


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


def test_only_the_oracle_imports_numpy():
    """No module but the oracle imports numpy: not at its top, not in a
    function and not in a TYPE_CHECKING block."""
    package = Path(linkstat.__file__).resolve().parent
    importers = set()
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                modules = [node.module]
            else:
                continue
            if any(module.partition(".")[0] == "numpy" for module in modules):
                importers.add(path.name)
    assert importers == {"oracle.py"}


def named_nodes(node, name, function=None):
    """(enclosing function or None, node) for each name, attribute or import
    alias under ``node`` that spells ``name``; a signature counts as inside
    its function."""
    for child in ast.iter_child_nodes(node):
        inner = child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else function
        if (isinstance(child, ast.Name) and child.id == name
                or isinstance(child, ast.Attribute) and child.attr == name
                or isinstance(child, ast.alias) and name in (child.name, child.asname)):
            yield function, child
        yield from named_nodes(child, name, inner)


def test_one_refine_tolerance():
    """No function takes a ``tolerance``, and DEFAULT_REFINE_TOL is bound once,
    in modeswitch, and read (or imported) only inside _bisect_transition, so
    every refined edge uses the one tolerance a test can patch in place."""
    package = Path(linkstat.__file__).resolve().parent
    takers, bound, read = [], [], []
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                args = node.args
                params = [*args.posonlyargs, *args.args, *args.kwonlyargs, args.vararg, args.kwarg]
                if "tolerance" in [a.arg for a in params if a is not None]:
                    takers.append((path.name, getattr(node, "name", "<lambda>")))
        for function, node in named_nodes(tree, "DEFAULT_REFINE_TOL"):
            stored = isinstance(getattr(node, "ctx", None), ast.Store)
            (bound if stored else read).append((path.name, function))
    assert takers == []
    assert bound == [("modeswitch.py", None)]
    assert read == [("modeswitch.py", "_bisect_transition")]


def traced_lookups():
    """The (module, name) pairs that bench/tracing.py's TRACED wraps, read
    from its source: the lookups the benchmark makes on linkstat's modules."""
    path = Path(linkstat.__file__).resolve().parents[2] / "bench" / "tracing.py"
    tree = ast.parse(path.read_text(encoding="utf-8"))
    (traced,) = [node.value for node in tree.body if isinstance(node, ast.AnnAssign)
                 and node.target.id == "TRACED"]
    return {(module.value.removeprefix("linkstat."), name.value)
            for module, name, _ in (entry.elts for entry in traced.values)}


def test_forwards_are_the_benchmarks_lookups_off_home():
    forwards = {(module, name) for module, names in linkstat._FORWARDS.items()
                for name in names}
    assert forwards == {(module, name) for module, name in traced_lookups()
                        if linkstat._HOMES.get(name, module) != module}


@pytest.mark.parametrize("old", linkstat._FORWARDS)
def test_moved_names_resolve_on_the_module_they_left(old, run_child):
    """Each forwarded name is, on its old module and on the package, its
    home's object; the old module loads the home only on the first such
    lookup, in a fresh interpreter."""
    old_module = importlib.import_module(f"linkstat.{old}")
    for name in linkstat._FORWARDS[old]:
        home = linkstat._HOMES[name]
        code = (
            "import json, sys\n"
            f"import linkstat.{old} as old\n"
            f"before = 'linkstat.{home}' in sys.modules\n"
            f"value = getattr(old, {name!r})\n"
            f"print(json.dumps([before, value is getattr(sys.modules['linkstat.{home}'], "
            f"{name!r})]))\n"
        )
        assert run_child(code) == [False, True], name
        new_module = importlib.import_module(f"linkstat.{home}")
        assert getattr(old_module, name) is getattr(new_module, name), name
        assert getattr(linkstat, name) is getattr(new_module, name), name
    with pytest.raises(AttributeError, match=f"'linkstat.{old}' has no attribute 'nothing'"):
        old_module.nothing


# Public names that resolve only on their home and on the package, not on
# the module they moved out of: no benchmark lookup needs them there.
UNFORWARDED = {
    "statics": ("EquilibriumState", "spring_force"),
    "modeswitch": ("envelope",),
    "paramfile": ("Measurement", "MeasurementFileError", "ComparisonResult", "ComparisonRow",
                  "format_comparison_csv"),
}


@pytest.mark.parametrize("old", UNFORWARDED)
def test_unforwarded_names_resolve_on_their_home_alone(old):
    old_module = importlib.import_module(f"linkstat.{old}")
    for name in UNFORWARDED[old]:
        with pytest.raises(AttributeError, match=f"'linkstat.{old}' has no attribute '{name}'"):
            getattr(old_module, name)
        home = importlib.import_module(f"linkstat.{linkstat._HOMES[name]}")
        assert getattr(linkstat, name) is getattr(home, name), name


def test_model_holds_no_design_target():
    """The design target lives beside its reader in readers, not in model,
    which every command loads."""
    import linkstat.model

    for name in ("DesignSpec", "_FREE_FIELDS", "DEFAULT_BUDGET"):
        assert not hasattr(linkstat.model, name), name


def test_a_submodule_resolves_on_the_package_before_it_is_bound(monkeypatch):
    """bench/inputs.py reads linkstat.paramfile after a bare ``import linkstat``."""
    import linkstat.paramfile

    module = linkstat.paramfile
    monkeypatch.delattr(linkstat, "paramfile")
    assert linkstat.paramfile is module


def test_comparison_runs_no_import_per_call():
    """compare_measurements finds the kernel among its module's globals."""
    import linkstat.compare

    tree = ast.parse(Path(linkstat.compare.__file__).read_text(encoding="utf-8"))
    (function,) = [node for node in tree.body if isinstance(node, ast.FunctionDef)
                   and node.name == "compare_measurements"]
    assert not [node for node in ast.walk(function)
                if isinstance(node, (ast.Import, ast.ImportFrom))]
