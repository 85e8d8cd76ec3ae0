"""Rules about how the package source is laid out."""

import ast
import importlib
import re
import tomllib
from pathlib import Path

import pytest

from conftest import load_bench

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "parley"


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_function_local_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    local = [
        f"{path.name}:{node.lineno} in {func.name}()"
        for func in ast.walk(tree)
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
        for node in ast.walk(func)
        if isinstance(node, (ast.Import, ast.ImportFrom))
    ]
    assert local == []


@pytest.mark.parametrize(
    "path",
    sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"),
    ids=lambda p: p.name,
)
def test_no_unused_module_imports(path):
    # __init__.py is left out: its imports are the package surface
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = {
        (alias.asname or alias.name).split(".")[0]: node.lineno
        for node in tree.body
        if isinstance(node, (ast.Import, ast.ImportFrom))
        and not (isinstance(node, ast.ImportFrom) and node.module == "__future__")
        for alias in node.names
    }
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = [f"{path.name}:{line} {name}" for name, line in imported.items() if name not in used]
    assert unused == []


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_environment_reads(path):
    # a run depends only on the scenario file and the command line
    env_reads = {"environ", "environb", "getenv", "getenvb"}
    tree = ast.parse(path.read_text(encoding="utf-8"))
    reads = [
        f"{path.name}:{node.lineno}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "os"
        and node.attr in env_reads
        or isinstance(node, ast.ImportFrom)
        and node.module == "os"
        and any(alias.name in env_reads for alias in node.names)
    ]
    assert reads == []


def test_bench_span_targets_resolve():
    # the benchmark patches these by name; a class target must be defined in
    # the class body itself, since it is looked up with vars(cls)
    missing = []
    for module_name, cls, attr, _ in load_bench("spans").TARGETS:
        owner = importlib.import_module(module_name)
        if cls is not None:
            owner = vars(owner).get(cls)
            found = vars(owner).get(attr) if owner is not None else None
        else:
            found = vars(owner).get(attr)
        if not callable(found):
            missing.append(f"{module_name}.{cls + '.' if cls else ''}{attr}")
    assert missing == []


def test_every_module_level_definition_is_used():
    # a module-level function or class must be referenced somewhere in the
    # package outside its own body, or be imported by __init__.py as surface
    trees = {p.name: ast.parse(p.read_text(encoding="utf-8")) for p in PACKAGE.glob("*.py")}
    exported = {
        alias.asname or alias.name
        for node in trees["__init__.py"].body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    # names referenced by each top-level statement, keyed by its position
    refs = {
        (name, i): {
            n.id if isinstance(n, ast.Name) else n.attr
            for n in ast.walk(stmt)
            if isinstance(n, (ast.Name, ast.Attribute))
        }
        for name, tree in trees.items()
        for i, stmt in enumerate(tree.body)
    }
    unused = [
        f"{name}:{stmt.lineno} {stmt.name}"
        for name, tree in sorted(trees.items())
        for i, stmt in enumerate(tree.body)
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and stmt.name not in exported
        and not any(stmt.name in names for key, names in refs.items() if key != (name, i))
    ]
    assert unused == []


def test_every_export_is_named_in_readme():
    # each name of the package surface is named, as code, in the README's
    # Library section, so the surface and its documentation move together
    tree = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    library = readme.split("\n### Library\n", 1)[1].split("\n## ", 1)[0]
    exported = [
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    ]
    assert len(exported) > 40
    missing = [name for name in exported if not re.search(rf"`{name}\b", library)]
    assert missing == []


def test_trusted_construction_stays_in_beliefs():
    # objects built without their checks are built in one module, from parts
    # that module has checked; every other module goes through its builders
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Attribute)
        and node.attr == "__new__"
        and isinstance(node.value, ast.Name)
        and node.value.id == "object"
    ]
    assert found and all(site.startswith("beliefs.py:") for site in found), found


def test_store_sides_are_read_in_beliefs_only():
    # a store's two dicts and its consequent index are its
    # representation: other modules go through its lookups and writers, so
    # the representation can change in one module
    fields = ("_own", "_model", "_by_consequent")
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Attribute) and node.attr in fields
    ]
    assert found and all(site.startswith("beliefs.py:") for site in found), found


def test_only_negotiate_reads_expertise_in_the_engine():
    # what a speaker's bare word is worth is decided by ``Speaker`` alone:
    # the engine reads an agent's expertise once, where ``negotiate`` makes
    # the agent's speaker.  beliefs.py and scenario.py read and write it as
    # the file format and the store hold it, so they are not checked.
    engine = ("cli", "evaluation", "focus", "justification", "negotiation", "trace")
    found = []
    for name in (f"{module}.py" for module in engine):
        tree = ast.parse((PACKAGE / name).read_text(encoding="utf-8"))
        allowed = {
            id(node)
            for func in tree.body
            if isinstance(func, ast.FunctionDef) and func.name == "negotiate"
            for node in ast.walk(func)
        }
        found += [
            f"{name}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and node.attr == "expertise"
            and id(node) not in allowed
        ]
    assert found == []


# each engine function that calls itself, with the bound on its depth: the
# text that enforces or reports that bound in the function's module
SELF_CALLS = {
    # proposition text nests supports(...) at most this deep
    ("beliefs.py", "_parse_prop"): "MAX_PROP_NESTING",
    # the JSON decoder's own nesting limit comes first
    ("scenario.py", "_parse_node"): "document nested too deeply",
    # one level per counter-claim, up to the scenario's maxDepth
    ("negotiation.py", "_settle"): "max_depth",
}


def test_every_self_call_has_a_stated_bound():
    # a function that calls itself runs out of Python's stack on deep
    # enough input; every other walk keeps its own stack
    found = {}
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        for func in ast.walk(ast.parse(source)):
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)) and any(
                isinstance(node, ast.Call)
                and (
                    isinstance(node.func, ast.Name)
                    and node.func.id == func.name
                    or isinstance(node.func, ast.Attribute)
                    and node.func.attr == func.name
                    and isinstance(node.func.value, ast.Name)
                    and node.func.value.id in ("self", "cls")
                )
                for node in ast.walk(func)
            ):
                found[path.name, func.name] = source
    assert sorted(found) == sorted(SELF_CALLS)
    assert [key for key, bound in SELF_CALLS.items() if bound not in found[key]] == []


def test_no_runtime_dependencies():
    # the package needs only the standard library; test tools are extras
    with open(ROOT / "pyproject.toml", "rb") as file:
        project = tomllib.load(file)["project"]
    assert project["dependencies"] == []
