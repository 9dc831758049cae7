"""The report writer writes what ``json.dumps`` writes, and writes Fractions
and dataclasses as the reference encoder below turns them into JSON data."""

import json
from dataclasses import asdict, dataclass, is_dataclass
from fractions import Fraction as Q
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dircq.linalg import vec
from dircq.oracle import (
    EliminationTrace,
    Schedule,
    SampleResult,
    WitnessSequence,
    sample_directional_normals,
    search_mpec_normality,
    search_normality_violation,
)
from dircq.report import dumps
from test_oracle import ex47_problem, ex58_system, halfplane_union


def reference(obj):
    """JSON data of obj: a Fraction as its "p/q" string, a dataclass (deep
    copied with asdict) as the dict of its fields."""
    if isinstance(obj, Q):
        return str(obj)
    if isinstance(obj, dict):
        return {k: reference(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [reference(v) for v in obj]
    if is_dataclass(obj) and not isinstance(obj, type):
        return reference(asdict(obj))
    return obj


def oracle_results():
    seq = search_normality_violation(ex58_system(), vec([-1]), vec([0, -1]), schedule=Schedule(k_max=12))
    sample = sample_directional_normals(halfplane_union(), vec([0, 0]), vec([-1, 0]), Schedule(k_max=12))
    trace = search_mpec_normality(ex47_problem(), vec([0, 1]), vec([1]), Schedule(k_max=12))
    assert isinstance(seq, WitnessSequence) and isinstance(sample, SampleResult)
    assert isinstance(trace, EliminationTrace)
    return seq, sample, trace


def test_writer_matches_reference_encoder():
    seq, sample, trace = oracle_results()
    objs = [
        seq,
        sample,
        trace,
        {"kind": "witness_sequence", "candidate": vec([0, -1]), "sequence": seq},
        {"a": [sample, {"inner": trace}], "b": (seq,), "c": {"d": Q(5, 7)}},
    ]
    for obj in objs:
        assert dumps(obj) == json_dumps(reference(obj))


def json_dumps(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


_strings = st.text() | st.sampled_from(['"', "\\", "\x00\x1f\x7f", "\n\t\r\b\f", "é", "\u2028", "\U0001f600", ""])
_leaves = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(-(10**40), 10**40)
    | st.floats()
    | st.sampled_from([float("nan"), float("inf"), float("-inf"), -0.0, 0.0, 1e300, -1e-300, 5e-324, 0.1])
    | _strings
)
_trees = st.recursive(
    _leaves,
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=4).map(tuple)
    | st.dictionaries(_strings, inner, max_size=4),
    max_leaves=25,
)


@settings(max_examples=300, deadline=None)
@given(st.dictionaries(_strings, _trees, max_size=5))
def test_writer_matches_json_dumps(obj):
    assert dumps(obj) == json_dumps(obj)


@settings(max_examples=100, deadline=None)
@given(_trees)
def test_writer_matches_json_dumps_on_any_tree(obj):
    assert dumps(obj) == json_dumps(obj)


@dataclass(frozen=True)
class Pair:
    left: object
    right: object


_rich_trees = st.recursive(
    _leaves | st.fractions() | st.builds(Q, st.integers(-(10**30), 10**30), st.integers(1, 10**30)),
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=4).map(tuple)
    | st.dictionaries(_strings, inner, max_size=4)
    | st.builds(Pair, inner, inner),
    max_leaves=25,
)


@settings(max_examples=200, deadline=None)
@given(_rich_trees)
def test_writer_matches_reference_on_fractions_and_dataclasses(obj):
    assert dumps(obj) == json_dumps(reference(obj))


@pytest.mark.parametrize("path", sorted((Path(__file__).parent / "golden").glob("*.json")), ids=lambda p: p.stem)
def test_writer_rewrites_every_golden_report(path):
    text = path.read_text()
    report = json.loads(text)
    assert dumps(report) == json_dumps(report) == text


@pytest.mark.parametrize(
    "obj",
    [{"a": [{1, 2}]}, {"a": 1j}, {1: "a"}, {"a": {"b": {2: 0}}}, {Q(1, 2): "a"}, {"a": {None: 0}}],
    ids=["set-value", "complex-value", "int-key", "nested-int-key", "fraction-key", "none-key"],
)
def test_writer_rejects_what_is_not_json(obj):
    with pytest.raises(TypeError):
        dumps(obj)
