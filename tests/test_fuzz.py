"""Edited problem files and reports: an error message, never an exception.

Each test edits a shipped fixture or golden report once or twice: it deletes
a key of an object, replaces a leaf (a value that is not an object or list)
with a value from ``POOL``, or duplicates an entry of a list.  An edited
problem file parses to a ``Problem`` whose named points and directions have
the lengths its model block gives them, or raises ``ProblemFormatError``.
An edited report gives a list of strings from ``verify_report``.

The reports are the small goldens, which between them hold every kind of
certificate that ``verify_report`` checks; a large golden would only add
recomputation time to tier-1.
"""

import copy
import json
from importlib import resources
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dircq.problemfile import Problem, ProblemFormatError, load_problem, parse_problem
from dircq.report import verify_report
from test_verify import _at

FIXTURES = ("ex58", "ex58sq", "ex47", "staircase", "comb")
REPORTS = ("comb", "ex47", "ex58", "ex58-normality", "staircase")
GOLDEN = Path(__file__).parent / "golden"
# small JSON values of every type, each a wrong value somewhere: a short
# vector, a non-numeric scalar, an object where a list belongs
POOL = (None, True, False, 0, 1, -1, 2, 1.5, "", "x", "1/2", "-1", [], [0], ["1", "x"], {}, {"a": 1})


def fixture_text(name: str) -> str:
    return (resources.files("dircq") / "fixtures" / f"{name}.json").read_text()


def nodes(obj, path=()):
    """The path of every value below obj, each with its value."""
    items = obj.items() if isinstance(obj, dict) else enumerate(obj) if isinstance(obj, list) else ()
    for key, value in items:
        yield (*path, key), value
        yield from nodes(value, (*path, key))


@st.composite
def edited(draw, text: str):
    """The JSON data of text after one or two edits."""
    doc = json.loads(text)
    for _ in range(draw(st.integers(1, 2))):
        found = list(nodes(doc))
        edits = [("delete", p) for p, _ in found if isinstance(p[-1], str)]
        edits += [("replace", p) for p, v in found if not isinstance(v, (dict, list))]
        edits += [("duplicate", p) for p, _ in found if isinstance(p[-1], int)]
        if not edits:
            break
        op, path = draw(st.sampled_from(edits))
        parent, key = _at(doc, path[:-1]), path[-1]
        if op == "delete":
            del parent[key]
        elif op == "replace":
            parent[key] = copy.deepcopy(draw(st.sampled_from(POOL)))
        else:
            parent.insert(key, copy.deepcopy(parent[key]))
    return doc


def vector_lengths(pr: Problem) -> tuple[dict[str, int], int | None]:
    """The length of each named point that the model block fixes, and of
    every direction (None when the block leaves directions unchecked)."""
    if pr.kind == "constraint":
        return {"xbar": pr.system.n}, pr.system.n
    if pr.kind == "patch":
        return {"xbar": pr.patch_map.nx, "ybar": pr.patch_map.ny}, None
    if pr.kind == "graphset":
        return {"base": pr.graph_nx + pr.graph_ny}, pr.graph_nx + pr.graph_ny
    return {"xbar": pr.mpec_omega.dim + pr.mpec_s.ny}, pr.mpec_omega.dim + pr.mpec_s.ny


@pytest.mark.parametrize("name", FIXTURES)
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_edited_problem_file_parses_or_is_a_format_error(name, data):
    doc = data.draw(edited(fixture_text(name)))
    try:
        pr = parse_problem(doc)
    except ProblemFormatError:
        return
    points, direction = vector_lengths(pr)
    for key, size in points.items():
        assert key not in pr.points or len(pr.points[key]) == size, key
    if direction is not None:
        assert all(len(u) == direction for u in pr.directions.values()), pr.directions


@pytest.fixture(scope="module")
def problems():
    return {name: load_problem(str(resources.files("dircq") / "fixtures" / f"{name}.json")) for name in FIXTURES}


@pytest.mark.parametrize("name", REPORTS)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_edited_report_gives_error_lines(problems, name, data):
    report = data.draw(edited((GOLDEN / f"{name}.json").read_text()))
    errors = verify_report(report, problems[name.split("-")[0]])
    assert isinstance(errors, list) and all(isinstance(e, str) for e in errors)
