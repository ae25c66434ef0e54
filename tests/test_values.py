"""The value types: each pickles and copies to an equal object with an
equal hash, keeps its field-by-field repr, cannot be changed, and equals
no object of another type."""

import copy
import pickle
from fractions import Fraction

import pytest

from neurocode.codes import Code, CodeMap, ElementaryMap, SimplicialComplex
from neurocode.graphs import CodeGraph
from neurocode.ideal import CanonicalForm, PseudoMonomial
from neurocode.realization import IntervalCover, SegmentCover
from neurocode.verify import Check, SuiteResult

CODE = Code(3, [3, 0, 1])

# Each value with its repr, as the dataclasses these types were before
# printed it.
VALUES = [
    (CODE, "Code(n=3, masks=(0, 1, 3))"),
    (SimplicialComplex(3, [3]), "SimplicialComplex(n=3, facets=(3,))"),
    (CodeMap(CODE, CODE, CODE.masks),
     "CodeMap(domain=Code(n=3, masks=(0, 1, 3)), codomain=Code(n=3, masks=(0, 1, 3)), "
     "images=(0, 1, 3))"),
    (ElementaryMap.duplicate(2),
     "ElementaryMap(kind='duplicate', perm=None, neuron=2, target=None)"),
    (ElementaryMap.inclusion(CODE),
     "ElementaryMap(kind='inclusion', perm=None, neuron=None, "
     "target=Code(n=3, masks=(0, 1, 3)))"),
    (CodeGraph((1, 3), (2, 1)), "CodeGraph(vertices=(1, 3), nbrs=(2, 1))"),
    (CanonicalForm(3, [(2, 1), (4, 0)]),
     "CanonicalForm(n=3, elements=(PseudoMonomial(plus=4, minus=0), "
     "PseudoMonomial(plus=2, minus=1)))"),
    (PseudoMonomial(1, 2), "PseudoMonomial(plus=1, minus=2)"),
    (IntervalCover((("0", "2"), (1, 3)), "union"),
     "IntervalCover(intervals=((Fraction(0, 1), Fraction(2, 1)), "
     "(Fraction(1, 1), Fraction(3, 1))), ambient='union')"),
    (SegmentCover((((0, 0), (1, Fraction(1, 2))),)),
     "SegmentCover(segments=(((Fraction(0, 1), Fraction(0, 1)), "
     "(Fraction(1, 1), Fraction(1, 2))),))"),
    (Check("x", True, "ok"), "Check(name='x', passed=True, detail='ok', counterexample=None)"),
    (SuiteResult("s", {"n": 3}, [Check("x", False, "bad", {"code": "n=1;{1}"})]),
     "SuiteResult(suite='s', params={'n': 3}, checks=[Check(name='x', passed=False, "
     "detail='bad', counterexample={'code': 'n=1;{1}'})])"),
]
IDS = [f"{type(value).__name__}-{i}" for i, (value, _) in enumerate(VALUES)]


def field_names(value) -> tuple:
    return value._fields if isinstance(value, PseudoMonomial) else type(value).__slots__


def hash_or_error(value):
    try:
        return hash(value)
    except TypeError:
        return TypeError


@pytest.mark.parametrize("value, text", VALUES, ids=IDS)
def test_repr_is_the_field_by_field_text(value, text):
    assert repr(value) == text


@pytest.mark.parametrize("value, text", VALUES, ids=IDS)
def test_pickle_and_copies_give_an_equal_value(value, text):
    twins = [pickle.loads(pickle.dumps(value, protocol))
             for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
    twins += [copy.copy(value), copy.deepcopy(value)]
    for twin in twins:
        assert type(twin) is type(value)
        assert twin == value and not twin != value
        assert hash_or_error(twin) == hash_or_error(value)
        assert repr(twin) == text
    # a suite result holds a dict and a list, so it has no hash
    assert (hash_or_error(value) is TypeError) == isinstance(value, SuiteResult)


@pytest.mark.parametrize("value, text", VALUES, ids=IDS)
def test_fields_cannot_be_set_or_deleted(value, text):
    for name in field_names(value):
        with pytest.raises(AttributeError):
            setattr(value, name, getattr(value, name))
        with pytest.raises(AttributeError):
            delattr(value, name)
    with pytest.raises(AttributeError):
        value.extra = 1
    assert repr(value) == text


def test_equal_fields_of_different_types_are_not_equal():
    for a, b in [(Code(3, [3]), SimplicialComplex(3, [3])),
                 (Check("x", True, "ok"), ElementaryMap("x", True, "ok"))]:
        assert [getattr(a, name) for name in field_names(a)] == \
            [getattr(b, name) for name in field_names(b)]
        assert a != b and b != a
        assert not a == b
