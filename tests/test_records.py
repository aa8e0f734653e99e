"""The record classes: construction, validation, repr, equality, immutability, copies."""

import copy
import pickle
import re

import numpy as np
import pytest

from varregion import BoundaryCurve, Disk, EvalPoint, ExtremalSpec, JanowskiParams, QuadratureConfig
from varregion.sampler import InnerBatch

P = JanowskiParams(-0.5, 0.5)
LEAD = np.array([0.5, 0.25j])
ZEROS = np.array([[0.1, 0.2j]])
MASK = np.array([[True, False]])

# (class, positional args, keyword args, field names): the same record both ways
CONSTRUCTIONS = [
    (JanowskiParams, (-0.5, 0.5), dict(A=-0.5, B=0.5), ("A", "B")),
    (EvalPoint, (0.5, 0.3 + 0.4j), dict(z0=0.5, lam=0.3 + 0.4j), ("z0", "lam")),
    (Disk, (1 + 2j, 0.5), dict(center=1 + 2j, radius=0.5), ("center", "radius")),
    (BoundaryCurve, ([0.0, 1.0], [0j, 1 + 1j]), dict(thetas=[0.0, 1.0], values=[0j, 1 + 1j]),
     ("thetas", "values")),
    (InnerBatch, (LEAD, ZEROS, MASK), dict(lead=LEAD, zeros=ZEROS, mask=MASK), ("lead", "zeros", "mask")),
    (ExtremalSpec, (0.6, 0.3, P), dict(a=0.6, lam=0.3, params=P), ("a", "lam", "params")),
    (QuadratureConfig, (64, 1e-10), dict(max_panels=64, abs_tol=1e-10), ("max_panels", "abs_tol")),
]
IDS = [c[0].__name__ for c in CONSTRUCTIONS]
HASHABLE = [c for c in CONSTRUCTIONS if c[0] not in (BoundaryCurve, InnerBatch)]


def _fields(record, names):
    return tuple(getattr(record, n) for n in names)


def _same(a, b):
    """Field values equal, ndarray fields by dtype and bits."""
    if isinstance(a, np.ndarray):
        return isinstance(b, np.ndarray) and a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
    return type(a) is type(b) and a == b


@pytest.mark.parametrize("cls, args, kwargs, names", CONSTRUCTIONS, ids=IDS)
def test_positional_and_keyword_construction_agree(cls, args, kwargs, names):
    a, b = cls(*args), cls(**kwargs)
    assert type(a) is cls and type(b) is cls
    assert all(_same(x, y) for x, y in zip(_fields(a, names), _fields(b, names)))
    assert list(vars(a)) == list(names)


def test_conversions_and_defaults():
    p = EvalPoint(0, 1)
    assert type(p.z0) is complex and type(p.lam) is complex
    s = ExtremalSpec(1, 0, P)
    assert (type(s.a), type(s.lam), s.params) == (complex, complex, P)
    d = Disk(1, 0)
    assert (type(d.center), type(d.radius)) == (complex, float)
    c = BoundaryCurve([0, 1], [0, 1])
    assert (c.thetas.dtype, c.values.dtype, len(c)) == (np.dtype(float), np.dtype(complex), 2)
    assert QuadratureConfig() == QuadratureConfig(1024, 1e-12)
    assert QuadratureConfig(8).abs_tol == 1e-12


@pytest.mark.parametrize("make, message", [
    (lambda: JanowskiParams(0.5, 0.3), "require -1 <= A < B <= 1, got A=0.5, B=0.3"),
    (lambda: JanowskiParams(-1.5, 0.5), "require -1 <= A < B <= 1, got A=-1.5, B=0.5"),
    (lambda: JanowskiParams(-0.5, 0.0), "require B != 0"),
    (lambda: EvalPoint(1.0, 0.5), "require |z0| < 1, got |z0| = 1.0"),
    (lambda: EvalPoint(0.5, 1.5), "require |lambda| <= 1, got |lambda| = 1.5"),
    (lambda: Disk(0.0, -1), "require radius >= 0, got -1.0"),
    (lambda: Disk(0.0, float("nan")), "require radius >= 0, got nan"),
    (lambda: BoundaryCurve([0.0, 1.0], np.zeros(3)), "thetas and values must be 1-d arrays of equal length"),
    (lambda: BoundaryCurve([[0.0]], [[0.0]]), "thetas and values must be 1-d arrays of equal length"),
    (lambda: BoundaryCurve([0.0, 0.0, 1.0], np.zeros(3)), "thetas must be strictly increasing"),
    (lambda: BoundaryCurve([0.0, 1.0], [0.0, np.nan]), "curve samples must be finite"),
    (lambda: ExtremalSpec(2.0, 0.3, P), "require |a| <= 1, got |a| = 2.0"),
    (lambda: ExtremalSpec(0.5, 1.0, P), "require |lambda| < 1, got |lambda| = 1.0"),
    (lambda: QuadratureConfig(0), "require 1 <= max_panels <= 65536, got 0"),
    (lambda: QuadratureConfig(65537), "require 1 <= max_panels <= 65536, got 65537"),
    (lambda: QuadratureConfig(8, 0.0), "require abs_tol > 0"),
    (lambda: QuadratureConfig(8, float("nan")), "require abs_tol > 0"),
])
def test_validation_messages(make, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        make()


def test_repr_text():
    c = BoundaryCurve([0.0, 1.0], [0j, 1 + 1j])
    b = InnerBatch(LEAD, ZEROS, MASK)
    assert repr(P) == "JanowskiParams(A=-0.5, B=0.5)"
    assert repr(EvalPoint(0.5, 0.3 + 0.4j)) == "EvalPoint(z0=(0.5+0j), lam=(0.3+0.4j))"
    assert repr(Disk(1 + 2j, 0.5)) == "Disk(center=(1+2j), radius=0.5)"
    assert repr(c) == f"BoundaryCurve(thetas={c.thetas!r}, values={c.values!r})"
    assert repr(b) == f"InnerBatch(lead={LEAD!r}, zeros={ZEROS!r}, mask={MASK!r})"
    assert repr(ExtremalSpec(0.6, 0.3, P)) == (
        "ExtremalSpec(a=(0.6+0j), lam=(0.3+0j), params=JanowskiParams(A=-0.5, B=0.5))")
    assert repr(QuadratureConfig()) == "QuadratureConfig(max_panels=1024, abs_tol=1e-12)"


@pytest.mark.parametrize("cls, args, kwargs, names", HASHABLE, ids=[c[0].__name__ for c in HASHABLE])
def test_value_records_compare_and_hash_by_fields(cls, args, kwargs, names):
    a, b = cls(*args), cls(**kwargs)
    assert a is not b and a == b and not a != b
    assert hash(a) == hash(b) == hash(_fields(a, names))
    assert len({a, b}) == 1
    assert a != _fields(a, names)  # another type is never equal
    other = dict(kwargs)
    other[names[-1] if cls is not ExtremalSpec else "a"] = {
        JanowskiParams: 0.75, EvalPoint: 0.5j, Disk: 0.25, ExtremalSpec: -0.6, QuadratureConfig: 1e-11}[cls]
    assert a != cls(**other) and not a == cls(**other)


@pytest.mark.parametrize("cls, args", [(BoundaryCurve, ([0.0, 1.0], [0j, 1 + 1j])), (InnerBatch, (LEAD, ZEROS, MASK))])
def test_array_records_compare_like_their_field_tuples(cls, args):
    a = cls(*args)
    assert a == a  # the same field objects: identity decides, as in a tuple
    b = cls(*(np.array(x) for x in args))  # equal, but other array objects
    with pytest.raises(ValueError, match="ambiguous"):
        a == b
    with pytest.raises(TypeError, match="unhashable"):
        hash(a)


@pytest.mark.parametrize("cls, args, kwargs, names", CONSTRUCTIONS, ids=IDS)
def test_frozen_records_refuse_assignment_and_deletion(cls, args, kwargs, names):
    r = cls(*args)
    before = _fields(r, names)
    for name in names:
        with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
            setattr(r, name, 0)
        with pytest.raises(AttributeError, match=f"cannot delete field '{name}'"):
            delattr(r, name)
    with pytest.raises(AttributeError, match="cannot assign to field 'other'"):
        r.other = 0
    assert all(x is y for x, y in zip(_fields(r, names), before))


@pytest.mark.parametrize("cls, args, kwargs, names", CONSTRUCTIONS, ids=IDS)
@pytest.mark.parametrize("roundtrip", [copy.copy, copy.deepcopy, lambda r: pickle.loads(pickle.dumps(r)),
                                       lambda r: pickle.loads(pickle.dumps(r, protocol=0))],
                         ids=["copy", "deepcopy", "pickle", "pickle0"])
def test_copy_and_pickle_round_trips(cls, args, kwargs, names, roundtrip):
    r = cls(*args)
    s = roundtrip(r)
    assert type(s) is cls and s is not r
    assert list(vars(s)) == list(names)
    assert all(_same(x, y) for x, y in zip(_fields(r, names), _fields(s, names)))
    with pytest.raises(AttributeError):
        setattr(s, names[0], 0)
