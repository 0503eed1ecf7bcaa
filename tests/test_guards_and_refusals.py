"""Immutability guards, reprs and refusals that no other test reaches,
one row each: the call, then the exception it raises with its message,
or None with the value it returns."""

from fractions import Fraction

import pytest

from qsym.combinatorics import composition_of_subset
from qsym.core import QSymElement, TensorElement
from qsym.expansion import expand, poly_scale
from qsym.ppartitions import LabelledWeightedPoset, split_incomparable


def _poly():
    """x1 + x2, M[1] in two variables."""
    return expand(QSymElement.term("M", (1,)), 2)


_ROWS = [
    (
        lambda: setattr(QSymElement.term("M", (1,)), "basis", "L"),
        AttributeError,
        "QSymElement is immutable",
    ),
    (
        lambda: setattr(TensorElement(("M", "M"), {((1,), (2,)): 1}), "bases", ("L", "L")),
        AttributeError,
        "TensorElement is immutable",
    ),
    (lambda: setattr(_poly(), "nvars", 3), AttributeError, "TruncatedPoly is immutable"),
    (
        lambda: setattr(LabelledWeightedPoset(2), "n", 3),
        AttributeError,
        "LabelledWeightedPoset is immutable",
    ),
    (
        lambda: repr(TensorElement(("M", "L"), {((1,), (2,)): 3, ((), (1, 1)): "-1/2"})),
        None,
        "TensorElement(-1/2*M[](x)L[1, 1] + 3*M[1](x)L[2])",
    ),
    (
        lambda: repr(LabelledWeightedPoset(3, [(2, 3), (1, 3)], [1, 2, 1])),
        None,
        "LabelledWeightedPoset(n=3, covers=[(1, 3), (2, 3)], weights=[1, 2, 1])",
    ),
    (lambda: _poly().coefficient([(2, 1)]), None, Fraction(1)),
    (lambda: _poly().coefficient([(1, 2)]), None, Fraction(0)),
    (lambda: poly_scale(_poly(), 0).terms, None, {}),
    (lambda: LabelledWeightedPoset(2, [], [1]), ValueError, "expected 2 weights, got 1"),
    (
        lambda: LabelledWeightedPoset(2, [(1, 2)]).with_relation(2, 1),
        ValueError,
        "adding 2 < 1 would contradict 1 < 2",
    ),
    (
        lambda: split_incomparable(LabelledWeightedPoset(2), 1, 3),
        ValueError,
        "invalid pair (1, 3)",
    ),
    (lambda: composition_of_subset(3, (1, 1)), ValueError, "repeated element in (1, 1)"),
    (lambda: TensorElement(("M", "X")), ValueError, "unknown basis pair ('M', 'X')"),
    (
        lambda: TensorElement(("M", "L"), {((1,), (2,)): 1}).multiply_legs(),
        ValueError,
        "legs must share a basis to be multiplied",
    ),
]


@pytest.mark.parametrize("call, error, want", _ROWS)
def test_guard_repr_or_refusal(call, error, want):
    if error is None:
        assert call() == want
    else:
        with pytest.raises(error) as info:
            call()
        assert str(info.value) == want
