"""Value semantics of the package's immutable records (errors.Record and its subclasses)."""

import copy
import math
import pickle

import pytest

import softprob as sp
from softprob.moments import SoftMoments

LEAF = sp.Leaf(prediction=1.0, count=2)
POINT = sp.Observation.point(1.0)

# each record class: a factory that builds a fresh record by keyword, and a
# record of the same class that differs from it in one field
RECORDS = {
    "SoftNumber": (lambda: sp.SoftNumber(soft=1.5, real=-2.0), sp.SoftNumber(1.5, 2.0)),
    "SymmetricPair": (lambda: sp.SymmetricPair(height=2.0, width=0.25),
                      sp.SymmetricPair(2.0, 0.5)),
    "ExtendedSoftNumber": (lambda: sp.ExtendedSoftNumber(zlogz=1.0, soft=2.0, real=3.0),
                           sp.ExtendedSoftNumber(1.0, 2.0, -3.0)),
    "QuadratureConfig": (lambda: sp.QuadratureConfig(rel_tol=1e-6, abs_tol=1e-12),
                         sp.QuadratureConfig(1e-6)),
    "IntervalEvent": (lambda: sp.IntervalEvent(lo=1.0, hi=2.0, strict=False),
                      sp.IntervalEvent(1.0, 2.0)),
    "MixedSet": (lambda: sp.MixedSet(points=[1.0], intervals=[(2.0, 3.0)]),
                 sp.MixedSet([1.0], [(2.0, 4.0)])),
    "SoftMoments": (lambda: SoftMoments(nu=1.0, kappa=2.0, gamma1_sq=3.0, gamma2=4.0,
                                        lambda_sq=5.0, gamma=6.0),
                    SoftMoments(1.0, 2.0, 3.0, 4.0, 5.0, 7.0)),
    "InfoConfig": (lambda: sp.InfoConfig(log_base=2.0, zlogz_mode="collapse",
                                         quadrature=sp.QuadratureConfig(1e-6)),
                   sp.InfoConfig(2.0, "collapse")),
    "Observation": (lambda: sp.Observation(kind="interval", lo=0.0, hi=1.0),
                    sp.Observation.interval(0.0, 2.0)),
    "Dataset": (lambda: sp.Dataset(feature_names=["x"], rows=[((POINT,), POINT)] * 2,
                                   label_name="y"),
                sp.Dataset(["x"], [((POINT,), POINT)] * 2, "y")),
    "Leaf": (lambda: sp.Leaf(prediction=1.0, count=3), sp.Leaf(1.0, 4)),
    "Split": (lambda: sp.Split(feature="x", feature_index=0, threshold=0.5,
                               gain=sp.SoftNumber(0.1, 0.2), left=LEAF, right=LEAF),
              sp.Split("x", 0, 0.5, sp.SoftNumber(0.1, 0.2), LEAF, sp.Leaf(2.0, 2))),
    "TreeConfig": (lambda: sp.TreeConfig(max_depth=3, min_rows=8,
                                         min_gain=sp.SoftNumber(0.0, 0.1),
                                         info=sp.InfoConfig(log_base=2.0)),
                   sp.TreeConfig(3, 8, sp.SoftNumber(0.0, 0.1))),
}

# classes whose fields are not their constructor's arguments
DERIVED_FIELDS = {"MixedSet", "Dataset"}

# the repr of each of these, in the format of a dataclass's repr
REPRS = {
    "SoftNumber": "SoftNumber(soft=1.5, real=-2.0)",
    "IntervalEvent": "IntervalEvent(lo=1.0, hi=2.0, strict=False)",
    "MixedSet": "MixedSet(points=(1.0,), intervals=((2.0, 3.0),))",
    "Observation": "Observation(kind='interval', value=None, lo=0.0, hi=1.0)",
    "Dataset": "Dataset(feature_names=('x',), lo=array([[1., 1.],\n       [1., 1.]]), "
               "hi=array([[1., 1.],\n       [1., 1.]]), label_name='y')",
    "Split": "Split(feature='x', feature_index=0, threshold=0.5, "
             "gain=SoftNumber(soft=0.1, real=0.2), left=Leaf(prediction=1.0, count=2), "
             "right=Leaf(prediction=1.0, count=2))",
    "TreeConfig": "TreeConfig(max_depth=3, min_rows=8, min_gain=SoftNumber(soft=0.0, real=0.1), "
                  "info=InfoConfig(log_base=2.0, zlogz_mode='axis', quadrature=None))",
}


@pytest.fixture(params=sorted(RECORDS))
def record(request):
    make, other = RECORDS[request.param]
    return request.param, make, other


def test_equality_and_hash(record):
    name, make, other = record
    a, b = make(), make()
    if name == "Dataset":
        # a dataset equals only itself
        assert a == a and hash(a) == hash(a)
        assert a != b and not a == b
    else:
        assert a == b and not a != b
        assert hash(a) == hash(b)
    assert a != other and not a == other
    assert a != tuple(vars(a).values())
    assert a != 1.0


def test_fields_cannot_be_assigned_or_deleted(record):
    _, make, _ = record
    a = make()
    for field in [*vars(a), "extra"]:
        with pytest.raises(AttributeError):
            setattr(a, field, 0.0)
        with pytest.raises(AttributeError):
            delattr(a, field)
    assert repr(a) == repr(make())


@pytest.mark.parametrize("name", sorted(set(RECORDS) - DERIVED_FIELDS))
def test_positional_construction_matches_keyword_construction(name):
    a = RECORDS[name][0]()
    assert type(a)(*vars(a).values()) == a


@pytest.mark.parametrize("round_trip", [lambda r: pickle.loads(pickle.dumps(r)),
                                        copy.deepcopy], ids=["pickle", "deepcopy"])
def test_pickle_and_deepcopy_round_trip(record, round_trip):
    name, make, _ = record
    a = make()
    b = round_trip(a)
    assert type(b) is type(a) and repr(b) == repr(a)
    if name != "Dataset":
        assert b == a and hash(b) == hash(a)
    with pytest.raises(AttributeError):
        setattr(b, next(iter(vars(b))), 0.0)


@pytest.mark.parametrize("name", sorted(REPRS))
def test_repr_is_the_field_listing(name):
    assert repr(RECORDS[name][0]()) == REPRS[name]


def test_defaults():
    assert vars(sp.QuadratureConfig()) == {"rel_tol": 1e-9, "abs_tol": 0.0}
    assert vars(sp.InfoConfig()) == {"log_base": math.e, "zlogz_mode": "axis",
                                     "quadrature": None}
    assert vars(sp.TreeConfig()) == {"max_depth": 5, "min_rows": 4,
                                     "min_gain": sp.SoftNumber(0.0, 0.0),
                                     "info": sp.InfoConfig()}
    assert vars(sp.IntervalEvent(1, 2)) == {"lo": 1.0, "hi": 2.0, "strict": True}
    assert type(sp.IntervalEvent(1, 2).lo) is float
