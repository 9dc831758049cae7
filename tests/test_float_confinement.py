"""No float enters ``dircq`` outside a shrinking allow-list.

Exactness is fixed, so a float can change a verdict only where this list
lets it in.  The test reads every module of ``src/dircq`` with ``ast`` and
fails on a float literal, or on a call of ``float``, ``sqrt`` or
``isfinite`` (as a name or as an attribute, ``math.sqrt``), outside the
top-level functions, methods (``Class.method``) and constants that
``ALLOWED`` lists.  A nested function counts as part of the top-level
definition that holds it.  Each entry names the ROADMAP item that removes
it, and an entry that no longer holds a float is dropped, so the list only
shrinks.

A true division is not checked: ``a / b`` is exact on Fractions and a float
on ints, and the AST does not say which operands it has.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "dircq"
FLOAT_CALLS = {"float", "sqrt", "isfinite"}

ALLOWED = {
    "oracle": {
        "_residuals_settle": "ROADMAP item 3: the germ fit replaces the float settling test",
        "search_normality_violation": "ROADMAP items 3 and 11: the germ fit replaces its residual floats",
        "_norm": "ROADMAP items 3 and 11: the residual floats it serves go",
        "_asym_residuals": "ROADMAP item 11: the asymptotic-regularity search goes or turns exact",
    },
    "report": {
        "_float": "ROADMAP item 22: the writer's float branch, decided once no other entry is left",
    },
}


def definitions(tree: ast.Module):
    """(name, node) of each top-level function, class method and assigned
    constant; a class body outside its methods counts under the class."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.name, node
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                name = getattr(item, "name", None)
                yield (f"{node.name}.{name}" if name else node.name), item
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            yield ",".join(getattr(t, "id", "?") for t in targets), node
        else:
            yield "<module>", node


def is_float_use(node: ast.AST) -> bool:
    if isinstance(node, ast.Constant):
        return type(node.value) is float
    if isinstance(node, ast.Call):
        func = node.func
        return getattr(func, "id", getattr(func, "attr", None)) in FLOAT_CALLS
    return False


def float_uses() -> dict[tuple[str, str], list[int]]:
    """(module, definition) -> the lines of its float literals and calls."""
    out: dict[tuple[str, str], list[int]] = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for name, top in definitions(ast.parse(path.read_text())):
            lines = [node.lineno for node in ast.walk(top) if is_float_use(node)]
            if lines:
                out[path.stem, name] = lines
    return out


def test_floats_stay_in_the_allow_list():
    stray = {f"{mod}.{name}": lines for (mod, name), lines in float_uses().items() if name not in ALLOWED.get(mod, {})}
    assert not stray, f"float literals or float calls outside the allow-list (module.definition: lines): {stray}"


def test_allow_list_names_only_definitions_that_hold_a_float():
    uses = float_uses()
    for mod, entries in ALLOWED.items():
        for name, reason in entries.items():
            assert (mod, name) in uses, f"{mod}.{name} holds no float now; drop it from ALLOWED"
            assert reason.startswith("ROADMAP item")
