"""Problem-file ingestion: malformed blocks raise ProblemFormatError naming the field."""

import copy
import json
import re
from importlib import resources

import pytest

from dircq.problemfile import ProblemFormatError, parse_problem


def fixture(name: str) -> dict:
    return json.loads((resources.files("dircq") / "fixtures" / f"{name}.json").read_text())


def without(data: dict, path: tuple[str, ...]) -> dict:
    data = copy.deepcopy(data)
    blk = data
    for key in path[:-1]:
        blk = blk[key]
    del blk[path[-1]]
    return data


def replaced(data: dict, path: tuple[str, ...], value) -> dict:
    data = copy.deepcopy(data)
    blk = data
    for key in path[:-1]:
        blk = blk[key]
    blk[path[-1]] = value
    return data


@pytest.mark.parametrize("name", ["ex58", "ex47", "staircase", "comb"])
def test_shipped_fixtures_parse(name):
    assert parse_problem(fixture(name)).name


@pytest.mark.parametrize(
    "name, path, message",
    [
        ("ex58", ("constraint", "n"), "constraint: missing field 'n'"),
        ("ex58", ("constraint", "D", "dim"), "constraint.D: missing field 'dim'"),
        ("ex47", ("mpec", "omega", "dim"), "mpec.omega: missing field 'dim'"),
        ("ex47", ("mpec", "s", "nx"), "mpec.s: missing field 'nx'"),
        ("staircase", ("graphset", "nx"), "graphset: missing field 'nx'"),
        ("comb", ("patch", "ny"), "patch: missing field 'ny'"),
    ],
)
def test_missing_field_is_named(name, path, message):
    with pytest.raises(ProblemFormatError, match=message):
        parse_problem(without(fixture(name), path))


@pytest.mark.parametrize(
    "name, path, value, message",
    [
        ("ex58", ("constraint", "D", "pieces"), 5, r"constraint\.D\.pieces: expected a list, got int"),
        ("ex47", ("mpec", "omega", "pieces"), {"a": []}, r"mpec\.omega\.pieces: expected a list, got dict"),
        ("staircase", ("graphset", "pieces"), "ab", r"graphset\.pieces: expected a list, got str"),
    ],
)
def test_pieces_must_be_a_list(name, path, value, message):
    with pytest.raises(ProblemFormatError, match=message):
        parse_problem(replaced(fixture(name), path, value))


@pytest.mark.parametrize(
    "name, path, message",
    [
        ("ex58", ("constraint", "n"), r"constraint\.n: not an integer: 'a'"),
        ("ex58", ("constraint", "D", "dim"), r"constraint\.D\.dim: not an integer: 'a'"),
        ("comb", ("patch", "nx"), r"patch\.nx: not an integer: 'a'"),
    ],
)
def test_non_integer_field_is_named(name, path, message):
    with pytest.raises(ProblemFormatError, match=message):
        parse_problem(replaced(fixture(name), path, "a"))


@pytest.mark.parametrize(
    "name, block",
    [("comb", ("patch",)), ("staircase", ("graphset",)), ("ex47", ("mpec", "s"))],
    ids=["patch", "graphset", "mpec.s"],
)
@pytest.mark.parametrize("value", [[], {"point": [0, 0]}], ids=["list", "dict"])
def test_declared_cones_are_rejected(name, block, value):
    # every cone is computed from the problem data, so declared cones are an error, not a no-op
    data = replaced(fixture(name), block + ("declared_cones",), value)
    where = re.escape(".".join(block))
    with pytest.raises(ProblemFormatError, match=rf"{where}\.declared_cones: cones are computed"):
        parse_problem(data)


def test_block_must_be_an_object():
    data = replaced(fixture("ex58"), ("constraint", "D"), [1, 2])
    with pytest.raises(ProblemFormatError, match="constraint.D: expected an object, got list"):
        parse_problem(data)


def test_piece_must_be_an_object():
    data = replaced(fixture("ex58"), ("constraint", "D", "pieces"), [5])
    with pytest.raises(ProblemFormatError, match=r"constraint\.D\.pieces: expected an object, got int"):
        parse_problem(data)


def test_family_kind_is_named():
    data = without(fixture("staircase"), ("graphset", "family", "kind"))
    with pytest.raises(ProblemFormatError, match=r"graphset\.family: missing field 'kind'"):
        parse_problem(data)


@pytest.mark.parametrize(
    "name, path, value, message",
    [
        ("ex58", ("constraint", "n"), True, r"constraint\.n: not an integer: True"),
        ("comb", ("patch", "family", "K"), 3.9, r"patch\.family\.K: not an integer: 3\.9"),
        ("comb", ("patch", "family", "K"), -5, r"patch\.family\.K: must be at least 0, got -5"),
        ("comb", ("patch", "nx"), "1", r"patch\.nx: not an integer: '1'"),
        ("ex58", ("constraint", "D", "dim"), 0, r"constraint\.D\.dim: must be at least 1, got 0"),
        ("ex47", ("mpec", "s", "ny"), 0, r"mpec\.s\.ny: must be at least 1, got 0"),
    ],
)
def test_integer_field_must_be_a_json_integer_in_range(name, path, value, message):
    with pytest.raises(ProblemFormatError, match=message):
        parse_problem(replaced(fixture(name), path, value))


@pytest.mark.parametrize(
    "data, message",
    [
        (
            replaced(fixture("ex58"), ("points", "xbar"), "12"),
            r"points\.xbar: expected a list of rational literals, got str",
        ),
        (
            replaced(fixture("ex58"), ("constraint", "D", "pieces", 0, "a"), ["10"]),
            r"constraint\.D\.pieces\.a: expected a list of rational literals, got str",
        ),
        (replaced(fixture("ex58"), ("constraint", "g"), "x0"), r"constraint\.g: expected a list, got str"),
        ([fixture("ex58")], r"problem: expected an object, got list"),
        (replaced(fixture("ex58"), ("points",), [[0]]), r"points: expected an object, got list"),
        (
            replaced(fixture("ex58"), ("directions", "plus"), 5),
            r"directions\.plus: expected a list of rational literals, got int",
        ),
        (
            replaced(fixture("comb"), ("patch", "patches"), [{"eq": "x0"}]),
            r"patch\.patches\.eq: expected a list, got str",
        ),
    ],
    ids=["point-string", "row-string", "g-string", "top-level-list", "points-list", "direction-int", "patch-eq-string"],
)
def test_vector_field_must_be_a_list(data, message):
    with pytest.raises(ProblemFormatError, match=message):
        parse_problem(data)


def test_family_k_may_be_zero():
    data = replaced(fixture("comb"), ("patch", "family", "K"), 0)
    assert len(parse_problem(data).patch_map.patches) == 1


def test_family_k_must_be_an_integer():
    data = replaced(fixture("comb"), ("patch", "family", "K"), "1/2")
    with pytest.raises(ProblemFormatError, match=r"patch\.family\.K: not an integer: '1/2'"):
        parse_problem(data)


@pytest.mark.parametrize("name", ["ex58", "ex47", "staircase", "comb"])
@pytest.mark.parametrize("schedule", [{"k_max": 12}, {}])
def test_schedule_block_is_rejected(name, schedule):
    # no decider reads a problem's schedule, so the block is an error, not a no-op
    data = {**fixture(name), "schedule": schedule}
    with pytest.raises(ProblemFormatError, match="schedule: problem files take no schedule block"):
        parse_problem(data)


@pytest.mark.parametrize(
    "name, basis, message",
    [
        ("ex58", {"vecs": [[1, 1], [1, -1]]}, "basis: missing field 'vectors'"),
        ("ex58", [[1, 1], [1, -1]], "basis: expected an object, got list"),
        ("ex58", {"vectors": 5}, r"basis\.vectors: expected a list, got int"),
        ("ex58", {"vectors": [5, 6]}, r"basis\.vectors: expected a list of vectors"),
        ("ex58", {"vectors": [[1, 1], [1, 1]]}, r"basis\.vectors: expected 2 pairwise orthogonal nonzero vectors of length 2"),
        ("ex58", {"vectors": [[1, 0], [0, 0]]}, r"expected 2 pairwise orthogonal"),
        ("ex58", {"vectors": [[1, 0]]}, r"expected 2 pairwise orthogonal"),
        ("ex58", {"vectors": [[1, 0, 0], [0, 1, 0], [0, 0, 1]]}, r"expected 2 pairwise orthogonal"),
        ("ex47", {"vectors": [[1, 0], [0, 1]]}, r"expected 1 pairwise orthogonal nonzero vectors of length 1"),
    ],
)
def test_malformed_basis_is_rejected(name, basis, message):
    with pytest.raises(ProblemFormatError, match=message):
        parse_problem({**fixture(name), "basis": basis})


@pytest.mark.parametrize("name, vectors", [("ex58", [[1, 1], [1, -1]]), ("ex47", [["-1/2"]])])
def test_orthogonal_basis_is_kept(name, vectors):
    pr = parse_problem({**fixture(name), "basis": {"vectors": vectors}})
    assert [[str(x) for x in v] for v in pr.basis] == [[str(x) for x in v] for v in vectors]


@pytest.mark.parametrize(
    "data, message",
    [
        (replaced(fixture("ex58"), ("constraint", "g"), ["x0", 5]), r"constraint\.g: expected a polynomial string, got int"),
        ({**fixture("ex58"), "objective": 5}, r"objective: expected a polynomial string, got int"),
        (
            replaced(fixture("comb"), ("patch", "patches"), [{"eq": ["y0", 5]}]),
            r"patch\.patches\.eq: expected a polynomial string, got int",
        ),
        (
            replaced(fixture("ex47"), ("mpec", "s", "patches"), [{"eq": ["y0"], "ineq": [["x0"]]}]),
            r"mpec\.s\.patches\.ineq: expected a polynomial string, got list",
        ),
    ],
    ids=["g", "objective", "patch-eq", "patch-ineq"],
)
def test_polynomial_literal_must_be_a_string(data, message):
    with pytest.raises(ProblemFormatError, match=message):
        parse_problem(data)


@pytest.mark.parametrize(
    "data, message",
    [
        (replaced(fixture("ex58"), ("constraint", "g"), ["1/0", "x0"]), r"constraint\.g: bad polynomial '1/0'"),
        ({**fixture("ex58"), "objective": "1/0"}, r"objective: bad polynomial '1/0'"),
        (replaced(fixture("ex58"), ("constraint", "g"), ["1e3", "x0"]), r"constraint\.g: bad polynomial '1e3': unknown symbol 'e3'"),
        (
            replaced(fixture("comb"), ("patch", "patches"), [{"eq": ["y0 - 2^x0"]}]),
            r"patch\.patches\.eq: bad polynomial",
        ),
        (replaced(fixture("ex58"), ("constraint", "D", "dim"), 3), r"constraint\.D\.pieces: row length 2 != dim 3"),
        (
            replaced(fixture("ex58"), ("constraint", "D", "pieces", 0, "b"), [0, 1]),
            r"constraint\.D\.pieces: rhs length does not match row count",
        ),
        (
            replaced(fixture("staircase"), ("graphset", "pieces"), [{"a": [[1, 0, 0]], "b": [0]}]),
            r"graphset\.pieces: row length 3 != dim 2",
        ),
        (replaced(fixture("ex58"), ("constraint", "g"), ["x0"]), r"constraint\.g: 1 polynomials for D in R\^2"),
        (replaced(fixture("ex58"), ("points", "xbar"), [0, 0]), r"points\.xbar: expected 1 entries \(constraint\.n\), got 2"),
        (replaced(fixture("ex58"), ("constraint", "D", "pieces"), []), r"constraint\.D\.pieces: expected at least one piece"),
        (replaced(fixture("ex47"), ("mpec", "omega", "pieces"), []), r"mpec\.omega\.pieces: expected at least one piece"),
        (without(fixture("staircase"), ("graphset", "family")), r"graphset\.pieces: expected at least one piece"),
        (replaced(fixture("ex58"), ("directions", "plus"), [1, 0, 0]), r"directions\.plus: expected 1 entries \(constraint\.n\), got 3"),
        (replaced(fixture("comb"), ("points", "xbar"), [0] * 5), r"points\.xbar: expected 1 entries \(patch\.nx\), got 5"),
        (replaced(fixture("comb"), ("points", "ybar"), [0, 0]), r"points\.ybar: expected 1 entries \(patch\.ny\), got 2"),
        (
            replaced(fixture("staircase"), ("points", "base"), [0] * 5),
            r"points\.base: expected 2 entries \(graphset\.nx \+ graphset\.ny\), got 5",
        ),
        (
            replaced(fixture("staircase"), ("directions", "diag"), [1]),
            r"directions\.diag: expected 2 entries \(graphset\.nx \+ graphset\.ny\), got 1",
        ),
        (
            replaced(fixture("ex47"), ("points", "xbar"), [0] * 5),
            r"points\.xbar: expected 2 entries \(mpec\.omega\.dim \+ mpec\.s\.ny\), got 5",
        ),
        (
            replaced(fixture("ex47"), ("directions", "e"), [1]),
            r"directions\.e: expected 2 entries \(mpec\.omega\.dim \+ mpec\.s\.ny\), got 1",
        ),
    ],
    ids=[
        "g-zero-division",
        "objective-zero-division",
        "g-float-literal",
        "patch-symbolic-exponent",
        "D-dim",
        "rhs-length",
        "graphset-row-length",
        "g-count",
        "xbar-length",
        "D-no-pieces",
        "omega-no-pieces",
        "graphset-no-pieces",
        "direction-length",
        "patch-xbar-length",
        "patch-ybar-length",
        "graphset-base-length",
        "graphset-direction-length",
        "mpec-xbar-length",
        "mpec-direction-length",
    ],
)
def test_malformed_data_is_a_format_error_naming_the_field(data, message):
    with pytest.raises(ProblemFormatError, match=message):
        parse_problem(data)
