"""The report encoder walks dataclass fields as ``dataclasses.asdict`` did."""

import json
from dataclasses import asdict, is_dataclass
from fractions import Fraction as Q

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
from dircq.report import _encode
from test_oracle import ex47_problem, ex58_system, halfplane_union


def asdict_encode(obj):
    """The encoder as it was: deep-copy the outermost dataclass with asdict."""
    if isinstance(obj, Q):
        return str(obj)
    if isinstance(obj, dict):
        return {str(k): asdict_encode(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [asdict_encode(v) for v in obj]
    if is_dataclass(obj) and not isinstance(obj, type):
        d = asdict(obj)
        d["__type__"] = type(obj).__name__
        return asdict_encode(d)
    return obj


def oracle_results():
    seq = search_normality_violation(ex58_system(), vec([-1]), vec([0, -1]), schedule=Schedule(k_max=12))
    sample = sample_directional_normals(halfplane_union(), vec([0, 0]), vec([-1, 0]), Schedule(k_max=12))
    trace = search_mpec_normality(ex47_problem(), vec([0, 1]), vec([1]), Schedule(k_max=12))
    assert isinstance(seq, WitnessSequence) and isinstance(sample, SampleResult)
    assert isinstance(trace, EliminationTrace)
    return seq, sample, trace


def test_encode_matches_asdict_encoder():
    seq, sample, trace = oracle_results()
    objs = [
        seq,
        sample,
        trace,
        {"kind": "witness_sequence", "candidate": vec([0, -1]), "sequence": seq},
        {(Q(1, 2), Q(-3)): [sample, {"inner": trace}], Q(3, 4): (seq,), None: {Q(1): Q(5, 7)}},
    ]
    for obj in objs:
        enc = _encode(obj)
        assert enc == asdict_encode(obj)
        assert json.dumps(enc, sort_keys=True) == json.dumps(asdict_encode(obj), sort_keys=True)
    # only the outermost dataclass on a path is typed
    enc = _encode(objs[3])
    assert enc["sequence"]["__type__"] == "WitnessSequence"
    assert all("__type__" not in r for r in enc["sequence"]["records"])
