"""Property tests of the product, coproduct, antipode and conversions in every basis:
the Hopf laws and the oracle."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qsym.core import QSymElement, TensorElement, antipode, convert, coproduct, multiply
from qsym.expansion import certify_equal, expand, poly_mul

BASES = ("M", "L", "eta", "K")


def _elements(basis):
    part = st.sampled_from((1, 3)) if basis == "K" else st.integers(1, 3)
    comp = st.lists(part, max_size=3).map(tuple).filter(lambda c: sum(c) <= 3)
    coeff = st.fractions(min_value=-3, max_value=3, max_denominator=4)
    terms = st.lists(st.tuples(comp, coeff), max_size=3)
    return terms.map(lambda t: QSymElement(basis, t))


ELEMENTS = {basis: _elements(basis) for basis in BASES}


@pytest.mark.parametrize("basis", BASES)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_product_laws(basis, data):
    a, b, c = (data.draw(ELEMENTS[basis]) for _ in range(3))
    out = "eta" if basis == "K" else basis
    ab = multiply(a, b)
    assert ab == multiply(b, a), "commutativity"
    bc = multiply(b, c)
    assert multiply(ab, convert(c, out)) == multiply(convert(a, out), bc), "associativity"
    one = QSymElement.unit(basis)
    assert multiply(one, a) == multiply(a, one) == convert(a, out), "unit"
    nvars = max(a.degree + b.degree, 1)
    lhs = expand(ab, nvars, a.degree + b.degree)
    assert lhs == poly_mul(expand(a, nvars), expand(b, nvars)), "oracle"


def _convolve_antipode(a, on_left):
    """m . (S (x) id) . Delta applied to a, or m . (id (x) S) . Delta."""
    da = coproduct(a)
    legs = da.bases[0]  # K's coproduct comes back in eta

    def s(comp):
        return antipode(QSymElement.term(legs, comp))

    def same(comp):
        return QSymElement.term(legs, comp)

    return da.map_legs(*((s, same) if on_left else (same, s)), (legs, legs)).multiply_legs()


@pytest.mark.parametrize("basis", BASES)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_antipode_laws(basis, data):
    a = data.draw(ELEMENTS[basis])
    counit = QSymElement.unit(basis).scale(a.counit())
    assert certify_equal(_convolve_antipode(a, True), counit), "m (S x id) Delta = e 1"
    assert certify_equal(_convolve_antipode(a, False), counit), "m (id x S) Delta = e 1"


@pytest.mark.parametrize("basis", BASES)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_round_trips(basis, data):
    """convert(convert(a, X), a.basis) == a for every X; into K only from the peak span."""
    a = data.draw(ELEMENTS[basis])
    peak = convert(data.draw(ELEMENTS["K"]), basis)
    for target in BASES:
        for x in (a, peak) if target != "K" or basis == "K" else (peak,):
            assert convert(convert(x, target), basis) == x, target


def _tensor_product(x, y):
    """(l1 (x) r1)(l2 (x) r2) = l1 l2 (x) r1 r2, extended bilinearly, from multiply."""
    acc = {}
    for (l1, r1), v1 in x.terms.items():
        for (l2, r2), v2 in y.terms.items():
            left = multiply(QSymElement.term(x.bases[0], l1), QSymElement.term(y.bases[0], l2))
            right = multiply(QSymElement.term(x.bases[1], r1), QSymElement.term(y.bases[1], r2))
            for cl, vl in left.terms.items():
                for cr, vr in right.terms.items():
                    acc[cl, cr] = acc.get((cl, cr), 0) + v1 * v2 * vl * vr
    return TensorElement(x.bases, acc)


def _triples(tensor, split_left):
    """(Delta (x) id) or (id (x) Delta) of a tensor, as {(c1, c2, c3): coeff}."""
    acc = {}
    for (cl, cr), v in tensor.terms.items():
        leg = cl if split_left else cr
        for (a, b), w in coproduct(QSymElement.term(tensor.bases[0], leg)).terms.items():
            key = (a, b, cr) if split_left else (cl, a, b)
            acc[key] = acc.get(key, 0) + v * w
    return {k: v for k, v in acc.items() if v}


@pytest.mark.parametrize("basis", BASES)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_coproduct_laws(basis, data):
    a, b = (data.draw(ELEMENTS[basis]) for _ in range(2))
    da = coproduct(a)
    assert _triples(da, True) == _triples(da, False), "coassociativity"
    assert coproduct(multiply(a, b)) == _tensor_product(da, coproduct(b)), "compatibility"
