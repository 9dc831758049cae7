"""Every public function, class and method of ``dircq`` has a caller.

A top-level function or class counts as referenced when a module of
``src/dircq`` or ``perfbench`` names it other than in its own definition: as
a variable (but not as a field annotated in a class body), an imported name,
a string or dotted string (``cli.run_check`` and the tracer look functions
up by name), or an attribute of a ``dircq`` module (``cq.foscms``).  An
attribute of any other object (``self.mat``) is not a reference to it.  A
method (of any class, public or not) counts by its name alone, and only as
an attribute or in a string: a local variable or function spelled like it
is not a call of it, but a method named like a referenced attribute of any
object passes unseen.  A public name with no reference is dead code unless
``KEEP`` lists it, under its module, as ``name`` or ``Class.method``, with
the reason it stays; an entry that has gained a caller, or whose name is
gone, is dropped from ``KEEP``.

Every module-level import of a ``src/dircq`` module is used in that module,
so a deletion cannot leave a stale import behind.

Every private top-level function and private method of ``src/dircq`` is
referenced in ``src/dircq`` outside its own definition (by the same kinds of
reference as above; a test is no caller), so a second copy of a kernel
cannot stay behind, half deleted, once its callers have moved.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "dircq"
SOURCES = sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))

KEEP = {
    "cq": {
        "Verdict.condition": "test reference: tests read one sub-condition of a theorem-checker verdict by name",
    },
    "polymaps": {
        "PolyMap.hessian_scalarized": "ROADMAP item 4: the jet search on the open face of the second-order rule; "
        "tests check second_order against it",
    },
    "problemfile": {
        "load_problem": "ROADMAP item 1: reads the problem file of the check and verify commands",
    },
    "report": {
        "build_report": "ROADMAP item 1: assembles the report the check command writes",
        "exit_code": "ROADMAP item 1: the exit status of the check and verify commands",
        "verify_report": "ROADMAP item 1: the checker behind the verify command",
    },
    "setmaps": {
        "constraint_graph_patches": "ROADMAP item 5: a constraint map as a patch map, for the harness that "
        "cross-checks the theorem checkers with the oracle",
    },
}


def public_definitions() -> set[tuple[str, str]]:
    """(module, name) of each public top-level function and class, and
    (module, "Class.method") of each public method."""
    out = set()
    for path in PACKAGE.glob("*.py"):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
                out.add((path.stem, node.name))
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                        out.add((path.stem, f"{node.name}.{item.name}"))
    return out


def annotated_fields(tree: ast.Module) -> set[int]:
    """The ids of the Name nodes that a class body annotates as its fields."""
    return {
        id(item.target)
        for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef)
        for item in node.body
        if isinstance(item, ast.AnnAssign)
    }


def referenced_names() -> tuple[set[str], set[str]]:
    """(the names referenced as a top-level name, the names referenced as an
    attribute or in a string)."""
    modules = {path.stem for path in PACKAGE.glob("*.py")}
    names, members = set(), set()
    for path in SOURCES:
        tree = ast.parse(path.read_text())
        fields = annotated_fields(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and id(node) not in fields:
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                members.add(node.attr)
                owner = node.value
                if getattr(owner, "id", getattr(owner, "attr", None)) in modules:
                    names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.name)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                parts = node.value.split(".")
                if all(p.isidentifier() for p in parts):
                    names.update(parts)
                    members.update(parts)
    return names, members


def referenced(name: str, refs: tuple[set[str], set[str]]) -> bool:
    """A method is referenced by its own name, without its class, as an
    attribute or in a string; any other name as a top-level name."""
    cls, _, attr = name.rpartition(".")
    return attr in refs[1] if cls else attr in refs[0]


def test_every_public_name_has_a_caller_or_a_reason():
    refs = referenced_names()
    dead = sorted(
        f"{mod}.{name}"
        for mod, name in public_definitions()
        if not referenced(name, refs) and name not in KEEP.get(mod, {})
    )
    assert not dead, f"public names that nothing in src/ or perfbench/ reaches: {dead}"


def test_keep_list_names_only_unreferenced_definitions():
    defined, refs = public_definitions(), referenced_names()
    for mod, entries in KEEP.items():
        for name, reason in entries.items():
            assert (mod, name) in defined, f"{mod}.{name} is no longer defined"
            assert not referenced(name, refs), f"{mod}.{name} has a caller now; drop it from KEEP"
            assert reason


def module_imports(tree: ast.Module) -> list[str]:
    """The names the module-level imports of a module bind."""
    out = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            out += [a.asname or a.name.partition(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            out += [a.asname or a.name for a in node.names]
    return out


def test_every_module_level_import_is_used():
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{path.stem}: {name}" for name in module_imports(tree) if name not in used]
    assert not unused, f"module-level imports that their module never uses: {unused}"


def private_definitions() -> list[tuple[str, ast.FunctionDef]]:
    """(module, node) of each private top-level function and private method
    (dunder methods are Python's, not the package's)."""
    out = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            items = node.body if isinstance(node, ast.ClassDef) else [node]
            out += [
                (path.stem, item)
                for item in items
                if isinstance(item, ast.FunctionDef) and item.name.startswith("_") and not item.name.endswith("__")
            ]
    return out


def package_references() -> dict[str, list[tuple[str, int]]]:
    """Each name that a module of ``src/dircq`` references (as a variable,
    an imported name, an attribute or a part of a dotted string), with the
    (module, line) of every reference."""
    refs: dict[str, list[tuple[str, int]]] = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                names = [node.id]
            elif isinstance(node, ast.Attribute):
                names = [node.attr]
            elif isinstance(node, ast.alias):
                names = [node.name]
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                names = node.value.split(".")
                if not all(p.isidentifier() for p in names):
                    continue
            else:
                continue
            for name in names:
                refs.setdefault(name, []).append((path.stem, node.lineno))
    return refs


def test_every_private_helper_is_used_in_the_package():
    refs = package_references()

    def outside(mod: str, node: ast.FunctionDef, ref: tuple[str, int]) -> bool:
        return ref[0] != mod or not node.lineno <= ref[1] <= node.end_lineno

    orphans = sorted(
        f"{mod}.{node.name}"
        for mod, node in private_definitions()
        if not any(outside(mod, node, ref) for ref in refs.get(node.name, ()))
    )
    assert not orphans, f"private helpers that nothing else in src/dircq references: {orphans}"
