"""Property tests of the product in every basis: the algebra laws and the oracle."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qsym.core import QSymElement, convert, multiply
from qsym.expansion import expand, poly_mul

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
