"""Every error message of ``verify`` is asserted by some test.

The messages are read from ``src/dircq/report.py`` with ``ast``: each string
returned by a check there (a function annotated ``-> str | None``, which
returns an error or None, or ``-> list[str]``, which returns error lines),
and each error text of the ``_CHECKS`` table (the line for a certificate
its check cannot decode).  An f-string counts by its first literal part
that holds a letter, so ``f"{err} at k={k}"`` counts as " at k="; a
conditional expression counts by both of its branches, and a list by its
entries.  Each message must occur, as written, in some file under
``tests/`` other than this one, so a new rejection cannot land without a
test that reaches it.
"""

import ast
from pathlib import Path

TESTS = Path(__file__).resolve().parent
REPORT = TESTS.parent / "src" / "dircq" / "report.py"
# the return annotations of a check
CHECK_RETURNS = ("str | None", "list[str]")


def literals(node: ast.expr) -> list[str]:
    """The text of a str constant, the first literal part with a letter of an
    f-string, both branches of a conditional expression or the entries of a
    list; [] for anything else."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return [node.value]
    if isinstance(node, ast.JoinedStr):
        parts = [v.value for v in node.values if isinstance(v, ast.Constant)]
        return [p for p in parts if any(c.isalpha() for c in p)][:1]
    if isinstance(node, ast.IfExp):
        return literals(node.body) + literals(node.orelse)
    if isinstance(node, ast.List):
        return [m for elt in node.elts for m in literals(elt)]
    return []


def report_messages() -> set[str]:
    """The strings that the checks of ``report.py`` return and the error
    texts of ``_CHECKS``."""
    tree = ast.parse(REPORT.read_text())
    out = set()
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and node.returns and ast.unparse(node.returns) in CHECK_RETURNS:
            out |= {m for ret in ast.walk(node) if isinstance(ret, ast.Return) and ret.value for m in literals(ret.value)}
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "_CHECKS" for t in node.targets):
            out |= {m for v in node.value.values if isinstance(v, ast.Tuple) for m in literals(v.elts[1])}
    return out


def test_report_messages_are_found():
    messages = report_messages()
    # a replay, a kernel-witness and a sequence rejection, an undecodable
    # certificate, a row and a report
    assert {"witness point left the set", "kernel witness violates the curvature sign", "empty witness sequence"} <= messages
    assert {"Farkas chain cannot be read", " without a certificate", "report is not an object with a list of rows"} <= messages
    # the JSON writer is no check
    assert "NaN" not in messages


def test_every_report_message_is_asserted_by_a_test():
    texts = [p.read_text() for p in sorted(TESTS.glob("*.py")) if p.resolve() != Path(__file__).resolve()]
    missing = sorted(m for m in report_messages() if not any(m in t for t in texts))
    assert not missing, f"verify messages that no test asserts: {missing}"
