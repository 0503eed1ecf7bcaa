"""Basis elements, conversions, products, coproducts, antipodes."""

import ast
import contextlib
import functools
import importlib
import inspect
import io
import itertools
import math
import pkgutil
import random
import re
import time
from collections import Counter
from collections.abc import Mapping
from fractions import Fraction

import pytest

import qsym
from qsym import core
from qsym.combinatorics import (
    _composition_of_mask,
    _descent_mask,
    compositions,
    descent_set,
    odd_compositions,
    quasi_shuffles,
)
from qsym.core import (
    K_of_permutation,
    L_of_permutation,
    NotInPeakSpanError,
    QSymElement,
    TensorElement,
    antipode,
    convert,
    coproduct,
    eta_product,
    multiply,
    signed_subset_sum,
)
from qsym.cli import main
from qsym.expansion import TruncatedPoly, certify_equal, expand, poly_add
from qsym.ppartitions import LabelledWeightedPoset, enumerate_assignments


def M(*parts, coeff=1):
    return QSymElement.term("M", parts, coeff)


def eta(*parts, coeff=1):
    return QSymElement.term("eta", parts, coeff)


def L(*parts, coeff=1):
    return QSymElement.term("L", parts, coeff)


def K(*parts, coeff=1):
    return QSymElement.term("K", parts, coeff)


# ---------------------------------------------------------------------------
# public names


def test_public_names():
    """Retiring or adding a public name is a deliberate edit of this list."""
    assert qsym.__all__ == [
        "BASES",
        "Composition",
        "CoshufflePair",
        "K_of_permutation",
        "L_of_permutation",
        "LabelledWeightedPoset",
        "NotInPeakSpanError",
        "Permutation",
        "QSymElement",
        "TensorElement",
        "TruncatedPoly",
        "antipode",
        "certify_equal",
        "chain_poset",
        "combinatorics",
        "complement",
        "composition_of_subset",
        "compositions",
        "contract",
        "contract_set",
        "convert",
        "coproduct",
        "core",
        "coshuffle_product",
        "coshuffles",
        "descent_set",
        "descent_set_of_permutation",
        "embed",
        "enumerate_assignments",
        "eta_product",
        "expand",
        "expansion",
        "gamma",
        "identity_permutation",
        "is_enriched_partition",
        "is_peak_lacunar",
        "multiply",
        "odd_composition_of_peak_set",
        "odd_compositions",
        "peak_set_of_composition",
        "peak_set_of_permutation",
        "poly_add",
        "poly_mul",
        "poly_scale",
        "positive_alphabet",
        "ppartitions",
        "quasi_shuffles",
        "reverse",
        "reversed_identity",
        "shuffles",
        "signed_alphabet",
        "signed_order_key",
        "signed_subset_sum",
        "split_incomparable",
        "universal_gamma",
        "universal_to_eta",
        "weighted_chain",
    ]


# ---------------------------------------------------------------------------
# element basics


def test_element_normalization():
    e = QSymElement("M", [((2,), 1), ((2,), -1), ((1, 1), Fraction(1, 2))])
    assert e.terms == {(1, 1): Fraction(1, 2)}
    assert QSymElement("M").is_zero
    assert (e - e).is_zero
    assert e.degree == 2
    assert QSymElement.zero("L").degree == 0


def test_element_validation():
    with pytest.raises(ValueError):
        QSymElement("Q", {(1,): 1})
    with pytest.raises(ValueError):
        QSymElement("M", {(0,): 1})
    with pytest.raises(ValueError):
        QSymElement("K", {(2, 1): 1})
    with pytest.raises(TypeError):
        QSymElement("M", {(1,): 0.5})


def _raised(make):
    try:
        make()
    except Exception as exc:  # the type and message are compared
        return type(exc), str(exc)
    raise AssertionError("no exception raised")


@pytest.mark.parametrize(
    "basis, comp, coeff",
    [
        ("Q", (1,), 1),  # unknown basis
        ("Q", (0,), True),  # unknown basis before a bad part and a bool
        ("K", (2, 1), 1),  # even K part
        ("K", (2, 1), 0.5),  # even K part before a float
        ("M", (0,), 1),  # part <= 0
        ("M", (2, -1), True),  # part <= 0 before a bool
        ("M", (1,), True),  # bool coefficient
        ("eta", (1,), 0.5),  # float coefficient
    ],
)
def test_term_refuses_as_the_constructor_refuses(basis, comp, coeff):
    assert _raised(lambda: QSymElement.term(basis, comp, coeff)) == _raised(
        lambda: QSymElement(basis, [(comp, coeff)])
    )


def test_term_matches_the_constructor():
    for basis, comp, coeff in [
        ("M", (2, 1), 1),
        ("K", (3, 1), -2),
        ("eta", [1, 2], "1/2"),
        ("L", (), Fraction(3, 4)),
        ("M", (1, 1), 0),
        ("eta", (2,), Fraction(0)),
    ]:
        got = QSymElement.term(basis, comp, coeff)
        assert got == QSymElement(basis, [(tuple(comp), coeff)])
        assert all(type(c) is Fraction for c in got.terms.values())
    assert QSymElement.term("M", (1, 1), 0).is_zero
    assert QSymElement.term("eta", [1, 2], "1/2").terms == {(1, 2): Fraction(1, 2)}


def test_element_arithmetic():
    e = 2 * M(1) + M(2)
    assert e == QSymElement("M", {(1,): 2, (2,): 1})
    assert e - M(2) == 2 * M(1)
    assert (-e).coefficient((1,)) == -2
    assert e.scale(Fraction(1, 2)).coefficient((1,)) == 1
    with pytest.raises(ValueError):
        M(1) + eta(1)


def _cancelling_sums():
    """One sum per accumulation site, each with a key that cancels, and the
    terms it must leave."""
    e = QSymElement("M", {(2,): 1, (1, 1): Fraction(1, 2)})
    f = QSymElement("M", {(2,): -1, (3,): 2})
    # (2,) -> M[3] + M[2] and (1, 1) -> -2*M[3] + M[1, 1]: the M[3]s cancel
    image = lambda c: QSymElement("M", {(3,): 1 if c == (2,) else -2, c: 1})
    t = TensorElement(("M", "M"), {((1,), (2,)): 1, ((2,), (1,)): 1})
    left = lambda c: QSymElement("M", {(3,): 1, c: 1})
    right = lambda c: QSymElement("M", {(3,): 1 if c == (2,) else -1})
    p = TruncatedPoly(2, 2, {((1, 1),): 1, ((2, 2),): 2})
    q = TruncatedPoly(2, 3, {((1, 1),): -1, ((1, 1), (2, 2)): Fraction(1, 3)})
    sums = {
        "QSymElement": (QSymElement("M", [((2,), 1), ((1, 1), 2), ((2,), -1)]), {(1, 1): 2}),
        "+": (e + f, {(1, 1): Fraction(1, 2), (3,): 2}),
        "-": (e - QSymElement("M", {(2,): 1}), {(1, 1): Fraction(1, 2)}),
        "map_terms": (e.map_terms(image, "M"), {(2,): 1, (1, 1): Fraction(1, 2)}),
        "TensorElement": (
            TensorElement(("M", "L"), [(((1,), (1,)), 1), (((2,), ()), 3), (((1,), (1,)), -1)]),
            {((2,), ()): 3},
        ),
        "map_legs": (
            t.map_legs(left, right, ("M", "M")),
            {((1,), (3,)): 1, ((2,), (3,)): -1},
        ),
        "TruncatedPoly": (
            TruncatedPoly(2, 2, [(((1, 1),), 1), (((2, 1),), 2), (((1, 1),), -1)]),
            {((2, 1),): 2},
        ),
        "poly_add": (poly_add(p, q), {((2, 2),): 2, ((1, 1), (2, 2)): Fraction(1, 3)}),
    }
    return [pytest.param(got, want, id=name) for name, (got, want) in sums.items()]


@pytest.mark.parametrize("got, want", _cancelling_sums())
def test_sums_that_cancel_drop_their_keys(got, want):
    assert dict(got.terms) == want
    assert all(got.terms.values())


def test_element_products_by_elements_and_scalars():
    a = QSymElement("M", {(1,): 2, (2,): Fraction(1, 2)})
    b = QSymElement("M", {(1,): -1, (1, 1): 3})
    assert a * b == multiply(a, b) == b * a
    assert a * 3 == 3 * a == a.scale(3) == a + a + a
    assert a * Fraction(-1, 2) == a.scale(Fraction(-1, 2))
    assert (a * 0).is_zero and (a * 0).basis == "M"
    for other in (True, 1.5, "2"):
        assert a.__mul__(other) is NotImplemented
        with pytest.raises(TypeError):
            a * other


def test_multiply_legs_on_K_legs_lands_in_eta():
    t = TensorElement(("K", "K"), {((1,), (3,)): 2, ((1,), (1,)): Fraction(-1, 2)})
    got = t.multiply_legs()
    assert got.basis == "eta"
    assert got == 2 * multiply(K(1), K(3)) - multiply(K(1), K(1)).scale(Fraction(1, 2))
    m1, m3 = convert(K(1), "M"), convert(K(3), "M")
    assert certify_equal(got, 2 * m1 * m3 - (m1 * m1).scale(Fraction(1, 2)))


def test_hash_agrees_with_equality():
    # equal values built in another order, or with int for Fraction
    # coefficients, or (for polynomials) with another degree bound
    pairs = [
        (
            QSymElement("M", {(1,): 2, (2,): Fraction(1, 2)}),
            QSymElement("M", [((2,), Fraction(1, 2)), ((1,), Fraction(2))]),
        ),
        (
            TensorElement(("M", "L"), {((1,), ()): 1, ((), (2,)): -3}),
            TensorElement(("M", "L"), [(((), (2,)), Fraction(-3)), (((1,), ()), 1)]),
        ),
        (
            TruncatedPoly(2, 2, {((1, 1),): 1, ((2, 2),): Fraction(1, 2)}),
            TruncatedPoly(2, 4, {((2, 2),): Fraction(1, 2), ((1, 1),): Fraction(1)}),
        ),
    ]
    for x, y in pairs:
        assert x == y and hash(x) == hash(y)
        assert len({x, y}) == 1
    assert len({x for pair in pairs for x in pair}) == 3


def test_coefficient_of_a_non_composition_is_zero():
    x = QSymElement("M", {(1, 2): 5, (3,): 7, (1,): 2, (): 4})
    for bad in ((0,), (1, 0, 2), (-1, 2), ("a",), (1.5, 1.5), (None,), 5):
        assert x.coefficient(bad) == 0
        assert bad not in x.terms
    # a tuple equal to a composition finds it, as a lookup by tuple would
    assert x.coefficient((1.0,)) == x.coefficient((True,)) == 2
    assert x.coefficient([1, 2]) == 5 and x.counit() == 4


def test_terms_is_a_read_only_mapping_of_compositions(monkeypatch):
    x = QSymElement("L", {(2, 1): Fraction(1, 3), (1, 1, 1): -2, (4,): 1})
    terms = x.terms
    assert isinstance(terms, Mapping)
    assert dict(terms) == {(2, 1): Fraction(1, 3), (1, 1, 1): -2, (4,): 1}
    assert all(type(c) is tuple and type(v) is Fraction for c, v in terms.items())
    assert terms == dict(terms.items()) and sorted(terms.values()) == [-2, Fraction(1, 3), 1]
    with pytest.raises(TypeError):
        terms[(3,)] = 1
    with pytest.raises(KeyError):
        terms[(3,)]
    tensor = coproduct(x)
    assert tensor.terms[(2,), (1,)] == Fraction(1, 3)
    assert ((5,), ()) not in tensor.terms and ("no", "pair") not in tensor.terms
    with pytest.raises(TypeError):
        tensor.terms[(), ()] = 1

    # the size is read without decoding a single term
    def refuse(code):
        raise AssertionError("a term was decoded")

    monkeypatch.setattr(core, "_composition_of_code", refuse)
    built = _counting_fractions(monkeypatch)
    assert len(x.terms) == 3 and len(tensor.terms) == len(tensor._terms)
    assert built == []


def test_terms_items_is_a_view_that_pairs_keys_and_values_as_it_iterates(monkeypatch):
    x = QSymElement("M", {(2, 1): Fraction(1, 3), (): -2, (1, 1, 1): 5})
    plain = {(2, 1): Fraction(1, 3), (): -2, (1, 1, 1): 5}
    for terms, want in ((x.terms, plain), (coproduct(x).terms, dict(coproduct(x).terms))):
        items = terms.items()
        assert len(items) == len(want)
        assert list(items) == list(items) == list(zip(terms, terms.values()))
        assert items == want.items() and want.items() == items
        assert all(pair in items for pair in want.items())
        assert (next(iter(want)), 99) not in items and ("no", 1) not in items
    items = x.terms.items()
    assert items & {((2, 1), Fraction(1, 3)), ((4,), 1)} == {((2, 1), Fraction(1, 3))}
    assert items | {((4,), 1)} == set(plain.items()) | {((4,), 1)}
    assert items - {((), -2)} == {((2, 1), Fraction(1, 3)), ((1, 1, 1), 5)}
    assert items.isdisjoint({((4,), 1)}) and not items.isdisjoint({((), -2)})

    # neither making the view nor iterating it builds a dict keyed by compositions
    monkeypatch.setattr(core, "dict", lambda *args: pytest.fail("a dict was built"), raising=False)
    assert dict(x.terms.items()) == plain


def test_repr_of_zero_values():
    assert repr(TensorElement(("M", "L"))) == "TensorElement(('M', 'L'), 0)"
    assert repr(QSymElement("eta")) == "QSymElement('eta', 0)"


def test_json_round_trip():
    e = convert(eta(1, 3, 1), "M") + M(2, coeff=Fraction(-1, 2))
    data = e.to_json_dict()
    assert data["basis"] == "M"
    assert QSymElement.from_json_dict(data) == e


@pytest.mark.parametrize(
    "data,message",
    [
        ([{"basis": "M", "terms": []}], "must be a JSON object, got list"),
        ({"basis": "M"}, "field 'terms' is missing"),
        ({"terms": []}, "field 'basis' is missing"),
        ({"basis": "M", "terms": [], "degree": 1}, "field 'degree' is unknown"),
        ({"basis": "M", "terms": {"comp": [1], "coeff": 1}}, "field 'terms' must list"),
        ({"basis": "M", "terms": [[[1], 1]]}, "field 'terms' must list"),
        ({"basis": "M", "terms": [{"comp": 1, "coeff": 1}]}, "field 'terms' must list"),
        ({"basis": "M", "terms": [{"comp": [1]}]}, "field 'terms' must list"),
        ({"basis": "M", "terms": [{"comp": [1], "coeff": 1, "x": 0}]}, "field 'terms' must list"),
        ({"basis": "M", "terms": [{"comp": [1], "coeff": "1/0"}]}, "zero denominator"),
    ],
)
def test_from_json_dict_refuses_malformed_input(data, message):
    with pytest.raises(ValueError, match=message):
        QSymElement.from_json_dict(data)


def test_a_zero_denominator_is_a_value_error():
    with pytest.raises(ValueError, match="zero denominator"):
        QSymElement("M", {(1,): "1/0"})
    with pytest.raises(ValueError, match="zero denominator"):
        QSymElement.term("M", (1,), "1/0")


def test_from_json_dict_refuses_inexact_coefficients():
    # a JSON float, bool, null or list is refused with a ValueError naming
    # the field, not read as the float's binary value or as 1
    for coeff in (0.1, 1.5, None, True, [1]):
        with pytest.raises(ValueError, match="field 'coeff' must be an integer or a string"):
            QSymElement.from_json_dict({"basis": "M", "terms": [{"comp": [1], "coeff": coeff}]})
    data = {"basis": "M", "terms": [{"comp": [1], "coeff": "1/2"}, {"comp": [2], "coeff": 3}]}
    assert QSymElement.from_json_dict(data) == QSymElement("M", {(1,): Fraction(1, 2), (2,): 3})
    assert QSymElement.from_json_dict(data).to_json_dict() == {
        "basis": "M",
        "terms": [{"comp": [1], "coeff": "1/2"}, {"comp": [2], "coeff": "3"}],
    }
    data = {"basis": "L", "terms": [{"comp": [2, 1], "coeff": "3/2"}, {"comp": [1], "coeff": 2}]}
    assert QSymElement.from_json_dict(data) == QSymElement("L", {(2, 1): Fraction(3, 2), (1,): 2})
    # a library call still gets the constructor's own TypeError
    for coeff in (1.5, None, True, [1]):
        with pytest.raises(TypeError, match="exact rationals"):
            QSymElement("M", {(1,): coeff})


# ---------------------------------------------------------------------------
# conversions


def test_eta_to_M():
    assert convert(eta(1, 3, 1), "M") == QSymElement(
        "M", {(5,): 2, (1, 4): 4, (4, 1): 4, (1, 3, 1): 8}
    )
    assert convert(eta(7), "M") == M(7, coeff=2)
    assert convert(eta(), "M") == QSymElement.unit("M")


def test_M_to_eta():
    assert convert(M(4), "eta") == eta(4, coeff=Fraction(1, 2))
    quarter = Fraction(1, 4)
    assert convert(M(1, 1), "eta") == QSymElement("eta", {(1, 1): quarter, (2,): -quarter})
    assert convert(M(), "eta") == QSymElement.unit("eta")
    # substitute back: the example is its own certificate
    expanded = convert(M(1, 1), "eta").map_terms(lambda c: convert(eta(*c), "M"), "M")
    assert expanded == M(1, 1)


def test_M_to_eta_denominators_are_dyadic():
    for n in range(6):
        for beta in compositions(n):
            for coeff in convert(M(*beta), "eta").terms.values():
                den = coeff.denominator
                assert den & (den - 1) == 0


def test_L_to_M():
    assert convert(L(2, 1), "M") == QSymElement("M", {(2, 1): 1, (1, 1, 1): 1})
    assert convert(L(3), "M") == QSymElement("M", {c: 1 for c in compositions(3)})
    assert convert(L(1, 1, 1, 1), "M") == M(1, 1, 1, 1)


def test_M_to_L():
    assert convert(M(1, 1), "L") == L(1, 1)
    assert convert(M(2), "L") == QSymElement("L", {(2,): 1, (1, 1): -1})
    for n in range(7):
        for beta in compositions(n):
            back = convert(M(*beta), "L").map_terms(lambda c: convert(L(*c), "M"), "M")
            assert back == QSymElement.term("M", beta)
            back = convert(L(*beta), "M").map_terms(lambda c: convert(M(*c), "L"), "L")
            assert back == QSymElement.term("L", beta)


def test_eta_to_L():
    assert convert(eta(1), "L") == L(1, coeff=2)
    assert convert(eta(2), "L") == QSymElement("L", {(2,): 2, (1, 1): -2})
    assert convert(eta(), "L") == QSymElement.unit("L")


@pytest.mark.parametrize("n", range(7))
def test_eta_to_L_consistency(n):
    for alpha in compositions(n):
        via_m = convert(eta(*alpha), "M").map_terms(lambda c: convert(M(*c), "L"), "L")
        assert convert(eta(*alpha), "L") == via_m


def test_signed_subset_sum():
    assert signed_subset_sum(set(), {9}) == 1
    assert signed_subset_sum({1, 2}, {1, 2, 3}) == 4
    assert signed_subset_sum({1, 4}, {1}) == 0
    # the closed form on every pair of subsets of [7]
    subs = [set(c) for k in range(8) for c in itertools.combinations(range(1, 8), k)]
    assert len(subs) == 128
    for s in subs:
        for t in subs:
            assert signed_subset_sum(s, t) == (2 ** len(s) if s <= t else 0)


def test_K_to_eta():
    assert convert(K(1), "eta") == eta(1)
    assert convert(K(3), "eta") == QSymElement("eta", {(1, 1, 1): 1, (3,): -1})
    assert convert(K(1, 1, 1, 1, 1), "eta") == eta(1, 1, 1, 1, 1)
    with pytest.raises(ValueError):
        convert(K(2, 1), "eta")


def test_K_to_M():
    assert convert(K(1), "M") == M(1, coeff=2)
    assert convert(K(3), "M") == (convert(eta(1, 1, 1), "M") - convert(eta(3), "M"))
    # direct peak-series certification across all odd indices of weight <= 6
    for n in range(7):
        for alpha in odd_compositions(n):
            assert certify_equal(convert(K(*alpha), "M"), QSymElement.term("K", alpha))


def test_permutation_elements():
    assert L_of_permutation((1, 2, 3)) == L(3)
    assert L_of_permutation((2, 1)) == L(1, 1)
    assert K_of_permutation((1, 3, 2)) == QSymElement.term("K", (3,))


@pytest.mark.parametrize("n", range(8))
def test_basis_round_trip_identities(n):
    for alpha in compositions(n):
        assert convert(convert(eta(*alpha), "M"), "eta") == QSymElement.term("eta", alpha)
        assert convert(convert(M(*alpha), "eta"), "M") == QSymElement.term("M", alpha)


@pytest.mark.parametrize("n", range(7))
def test_triangularity(n):
    for alpha in compositions(n):
        image = convert(eta(*alpha), "M")
        assert image.coefficient(alpha) == 2 ** len(alpha)
        des = set(descent_set(alpha))
        for beta in image.terms:
            assert set(descent_set(beta)) <= des


def test_convert_all_basis_pairs():
    rng = random.Random(7)
    bases = ("M", "L", "eta")
    cases = []
    for _ in range(25):
        basis = rng.choice(bases)
        n = rng.randint(0, 5)
        comps = list(compositions(n))
        cases.append(QSymElement(
            basis,
            [(rng.choice(comps), Fraction(rng.randint(-4, 4), rng.choice([1, 2])))
             for _ in range(rng.randint(1, 3))],
        ))
    # every single term with n <= 6, odd-indexed K included
    for n in range(7):
        for basis in bases:
            cases.extend(QSymElement.term(basis, c) for c in compositions(n))
        cases.extend(QSymElement.term("K", c) for c in odd_compositions(n))
    # one dense component per degree <= 7, with non-dyadic coefficients
    for n in range(8):
        basis = bases[n % 3]
        cases.append(QSymElement(
            basis, [(c, Fraction(k + 1, 3 + 2 * (k % 3))) for k, c in enumerate(compositions(n))]
        ))
    # mixed degrees, the empty composition included
    cases.append(QSymElement("eta", {(): Fraction(2, 3), (1,): -1, (2, 1): Fraction(5, 7),
                                     (1, 1, 2): Fraction(-1, 9), (3, 1, 1): 4}))
    for elem in cases:
        for target in bases:
            if target == elem.basis:
                continue
            image = convert(elem, target)
            assert image.basis == target
            assert convert(image, elem.basis) == elem
            assert certify_equal(image, elem)


def test_transforms_past_the_mask_budget_are_refused():
    assert core._MASK_BUDGET == 1 << 21
    budget = "over the budget of 2097152"
    with pytest.raises(ValueError, match=f"L to M in degree 40 needs up to {2**39} .*{budget}"):
        convert(L(40), "M")
    with pytest.raises(ValueError, match=f"eta to L in degree 30 needs up to {2**29} .*{budget}"):
        convert(eta(30), "L")
    with pytest.raises(ValueError, match=f"the antipode in degree 40 needs up to {2**39} "):
        antipode(M(*[1] * 40))
    # sparse images pass, however large the degree
    assert convert(eta(40), "M") == M(40, coeff=2)
    assert antipode(eta(*[1] * 40)) == eta(*[1] * 40)


def test_the_list_and_dict_transforms_agree(monkeypatch):
    """Each degree runs Yates' algorithm on a dict or, when dense, on a
    list; both give the same element for every _LATTICE entry.  A share of
    0 sends every degree to the dict, a huge one every degree to the list."""
    rng = random.Random(26)

    def element(basis, comps):
        return QSymElement(basis, {c: Fraction(rng.randint(-99, 99) or 1, rng.randint(1, 9)) for c in comps})

    for source, target in core._LATTICE:
        peak = "K" in (source, target)
        family = odd_compositions if peak else compositions
        cases = []
        for n in range(10):
            comps = list(family(n))
            cases += [element(source, comps), element(source, comps[-1:])]
        cases.append(element(source, [rng.choice(list(family(16))) for _ in range(5)]))
        for x in cases:
            images = []
            for share in (0, 1 << 40):
                monkeypatch.setattr(core, "_DENSE_SHARE", share)
                images.append(core._lattice_transform(x, target))
            monkeypatch.undo()
            assert images[0] == images[1] == core._lattice_transform(x, target)


def test_the_mask_bound_is_exact_for_L_to_M(monkeypatch):
    # L_alpha is the sum of M_beta over the 2^(n-1-|Des(alpha)|) refinements
    # beta of alpha, so the bound is the image's size, summed over the terms
    monkeypatch.setattr(core, "_MASK_BUDGET", 8)
    for elem, size in ((L(2, 3), 8), (L(4, 1, 1, 1, 1), 8), (L(1, 1, 1, 1, 3), 4)):
        assert len(convert(elem, "M").terms) == size
    for elem, bound in ((L(5), 16), (L(2, 3) + L(1, 4), 16), (L(3, 3), 16)):
        with pytest.raises(ValueError, match=f"needs up to {bound} subset masks"):
            convert(elem, "M")


def test_a_bound_past_20_digits_is_written_as_a_power_of_two():
    budget = "subset masks, over the budget of 2097152"
    with pytest.raises(ValueError, match=f"L to M in degree 67 needs up to {2**66} {budget}"):
        convert(L(67), "M")
    with pytest.raises(ValueError, match=rf"L to M in degree 68 needs up to 2\^67 {budget}"):
        convert(L(68), "M")
    # past 4,300 digits str(bound) itself would raise
    with pytest.raises(ValueError, match=rf"M to L in degree 15000 needs up to 2\^14999 {budget}"):
        convert(M(15000), "L")


def _library_refusal(call, *args):
    with pytest.raises(ValueError) as refused:
        call(*args)
    return str(refused.value)


def _cli_refusal(*argv):
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        assert main(list(argv)) == 1
    return err.getvalue()


@pytest.mark.parametrize(
    "refusal, message",
    [
        (
            lambda: _library_refusal(expand, QSymElement.term("L", (20000,)), 1),
            "the series of L[20000] needs 2^19999 index tuples, over the budget of 1048576",
        ),
        (
            lambda: _library_refusal(expand, M(*[1] * 20000), 40000),
            "expanding in 40000 variables needs 2^39993 monomials, over the budget of 1000000",
        ),
        (
            lambda: _library_refusal(enumerate_assignments, LabelledWeightedPoset(20000), (1, 2)),
            "2 values on 20000 vertices give 2^20000 candidate assignments, "
            "over the budget of 1000000",
        ),
        (
            lambda: _cli_refusal("expand", "L[20000]", "--nvars", "1"),
            "error: the series of L[20000] needs 2^19999 index tuples, "
            "over the budget of 1048576\n",
        ),
    ],
    ids=["series", "monomials", "assignments", "cli"],
)
def test_every_refusal_writes_a_count_past_20_digits_as_a_power_of_two(refusal, message):
    # str() of a count past 4,300 digits would raise instead of naming the budget
    assert refusal() == message


def test_over_budget_writes_every_work_budget_refusal():
    """No module of qsym formats a budget refusal but core._over_budget, so
    every budget, a new one too, writes its count the same way."""
    inside, outside = 0, []
    for info in pkgutil.iter_modules(qsym.__path__):
        tree = ast.parse(inspect.getsource(importlib.import_module(f"qsym.{info.name}")))
        writer = {
            id(node)
            for func in ast.walk(tree)
            if isinstance(func, ast.FunctionDef) and (info.name, func.name) == ("core", "_over_budget")
            for node in ast.walk(func)
        }
        docstrings = {id(node.value) for node in ast.walk(tree) if isinstance(node, ast.Expr)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Constant) and "over the budget of" in str(node.value):
                if id(node) in writer:
                    inside += 1
                elif id(node) not in docstrings:
                    outside.append(f"qsym.{info.name}, line {node.lineno}")
    assert (inside, outside) == (1, [])


def test_routed_K_conversions_are_refused_before_their_first_stage(monkeypatch):
    # the K to eta stage writes each eta term's code from its peak mask
    def first_stage(n, peaks):
        raise AssertionError("the K to eta stage ran")

    monkeypatch.setattr(core, "_code_of_peaks", first_stage)
    with pytest.raises(AssertionError, match="the K to eta stage ran"):
        convert(K(3), "M")
    for target in ("L", "M"):
        message = f"eta to {target} in degree 41 needs up to {2**40} subset masks, "
        with pytest.raises(ValueError, match=f"^{message}over the budget of 2097152$"):
            convert(K(41), target)


def test_a_routed_K_to_M_conversion_runs_when_eta_1n_cancels(monkeypatch):
    monkeypatch.setattr(core, "_MASK_BUDGET", 8)
    # the eta images of both terms hold eta[1,1,1,1,1], which cancels, and
    # what is left has an M image of 4 masks; in L every eta term has 16
    both = K(1, 3, 1) - K(1, 1, 1, 1, 1)
    assert convert(both, "eta") == eta(1, 3, 1, coeff=-1)
    assert convert(both, "M") == convert(eta(1, 3, 1, coeff=-1), "M")
    with pytest.raises(ValueError, match="^eta to L in degree 5 needs up to 16 "):
        convert(both, "L")
    with pytest.raises(ValueError, match="^eta to M in degree 5 needs up to 16 "):
        convert(K(1, 3, 1), "M")


def test_convert_to_K():
    assert convert(convert(K(3), "eta"), "K") == QSymElement.term("K", (3,))
    both = QSymElement("K", {(3,): 2, (1, 1, 1): -1})
    assert convert(convert(both, "M"), "K") == both
    with pytest.raises(NotInPeakSpanError) as info:
        convert(eta(2), "K")
    assert info.value.residual == eta(2)
    # the residual reports exactly the part outside the peak span
    mixed = convert(K(3), "M") + convert(eta(2), "M")
    with pytest.raises(NotInPeakSpanError) as info:
        convert(mixed, "K")
    assert info.value.residual == eta(2)
    # dense at two degrees: every odd index as a K image, every even-part
    # eta term outside the span; the residual is exactly the latter
    rng = random.Random(6)
    degrees = (6, 7)
    odd = [c for n in degrees for c in odd_compositions(n)]
    even = [c for n in degrees for c in compositions(n) if any(p % 2 == 0 for p in c)]
    k_part = QSymElement("K", {c: Fraction(rng.randint(1, 9), 3) for c in odd})
    outside = QSymElement("eta", {c: Fraction(rng.randint(1, 9), 7) for c in even})
    assert convert(convert(k_part, "M"), "K") == k_part
    with pytest.raises(NotInPeakSpanError) as info:
        convert(convert(k_part, "M") + convert(outside, "M"), "K")
    assert info.value.residual == outside


# ---------------------------------------------------------------------------
# products


def test_M_product():
    assert multiply(M(1), M(1)) == QSymElement("M", {(1, 1): 2, (2,): 1})
    assert multiply(M(1), M(2)) == QSymElement("M", {(1, 2): 1, (2, 1): 1, (3,): 1})
    assert multiply(QSymElement.unit("M"), M(2, 1)) == M(2, 1)
    assert certify_equal(multiply(M(1), M(1)), QSymElement("M", {(1, 1): 2, (2,): 1}))


def test_eta_product_examples():
    assert eta_product((1, 2), (2,)) == QSymElement(
        "eta", {(2, 1, 2): 1, (1, 2, 2): 2, (5,): -1}
    )
    assert eta_product((1, 1), (2, 3)) == QSymElement(
        "eta",
        {
            (1, 1, 2, 3): 1,
            (1, 2, 1, 3): 1,
            (4, 3): -1,
            (2, 1, 1, 3): 1,
            (1, 2, 3, 1): 1,
            (1, 6): -1,
            (2, 1, 3, 1): 1,
            (2, 5): -1,
            (2, 3, 1, 1): 1,
            (6, 1): -1,
        },
    )
    assert eta_product((), (1, 3, 1)) == eta(1, 3, 1)
    assert multiply(QSymElement.unit("eta"), eta(2)) == eta(2)


@pytest.mark.parametrize("total", range(7))
def test_eta_product_matches_M_route(total):
    for na in range(total + 1):
        for alpha in compositions(na):
            for beta in compositions(total - na):
                via_m = multiply(convert(eta(*alpha), "M"), convert(eta(*beta), "M"))
                assert convert(eta_product(alpha, beta), "M") == via_m


@pytest.mark.parametrize("total", range(9))
def test_M_product_counts_quasi_shuffles(total):
    # the pair walk merges duplicates; the generator yields every path
    for na in range(total + 1):
        for alpha in compositions(na):
            for beta in compositions(total - na):
                prod = multiply(M(*alpha), M(*beta))
                assert dict(prod.terms) == Counter(quasi_shuffles(alpha, beta))


@pytest.mark.parametrize("total", range(8))
def test_L_product_shuffle_rule(total):
    for na in range(total + 1):
        for alpha in compositions(na):
            for beta in compositions(total - na):
                prod = multiply(L(*alpha), L(*beta))
                via_m = multiply(convert(L(*alpha), "M"), convert(L(*beta), "M"))
                assert convert(prod, "M") == via_m
                assert certify_equal(prod, via_m)


def _equal_part_pairs():
    """Seeded operand pairs with parts from {1, 2}, so alpha_i = beta_j at
    many steps of the pair walk, of total degree 9 to 12; and (1^k, 1^k)."""
    rng = random.Random(23)
    pairs = [((1,) * k, (1,) * k) for k in range(1, 7)]
    for total in range(9, 13):
        for _ in range(3):
            sizes = rng.randint(2, total - 2)
            pair = []
            for n in (sizes, total - sizes):
                parts = []
                while sum(parts) < n:
                    parts.append(min(rng.choice((1, 1, 2)), n - sum(parts)))
                pair.append(tuple(parts))
            pairs.append(tuple(pair))
    return pairs


@pytest.mark.parametrize("alpha, beta", _equal_part_pairs())
def test_products_sum_equal_sized_steps(alpha, beta):
    assert dict(multiply(M(*alpha), M(*beta)).terms) == Counter(quasi_shuffles(alpha, beta))
    via_m = multiply(convert(eta(*alpha), "M"), convert(eta(*beta), "M"))
    assert convert(eta_product(alpha, beta), "M") == via_m
    via_m = multiply(convert(L(*alpha), "M"), convert(L(*beta), "M"))
    assert convert(multiply(L(*alpha), L(*beta)), "M") == via_m


def _inhomogeneous(basis, rng):
    """Five seeded terms of degrees 0 to 5 with rational coefficients."""
    pool = [
        comp
        for n in range(6)
        for comp in (odd_compositions(n) if basis == "K" else compositions(n))
    ]
    return QSymElement(
        basis,
        {
            comp: Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.choice((1, 2, 3, 4, 6)))
            for comp in rng.sample(pool, 5)
        },
    )


def _assert_canonical(x):
    """x stores int numerators over one denominator in canonical form: no
    zero numerator, a positive denominator, and no factor common to the
    denominator and every numerator (so the zero element has den 1); the
    public coefficients are nonzero Fractions."""
    assert type(x._den) is int and x._den >= 1
    assert all(type(v) is int and v for v in x._terms.values())
    assert math.gcd(x._den, *x._terms.values()) == 1
    assert all(type(v) is Fraction and v for v in x.terms.values())


@pytest.mark.parametrize("basis", ["M", "L", "eta", "K"])
def test_inhomogeneous_rational_products_are_sums_of_term_products(basis):
    rng = random.Random(f"inhomogeneous/{basis}")
    for _ in range(4):
        a, b = _inhomogeneous(basis, rng), _inhomogeneous(basis, rng)
        prod = multiply(a, b)
        out = "eta" if basis == "K" else basis
        total = QSymElement.zero(out)
        for ca, va in a.terms.items():
            for cb, vb in b.terms.items():
                total += multiply(
                    QSymElement.term(basis, ca, va), QSymElement.term(basis, cb, vb)
                )
        assert prod == total
        _assert_canonical(prod)


@pytest.mark.parametrize("basis", ["M", "L", "eta", "K"])
def test_inhomogeneous_conversions_and_L_coproducts_are_sums_over_terms(basis):
    rng = random.Random(f"inhomogeneous/{basis}/convert")
    for _ in range(4):
        a = _inhomogeneous(basis, rng)
        pieces = [QSymElement.term(basis, c, v) for c, v in a.terms.items()]
        for target in ("M", "L", "eta", "K"):
            if target == "K" and basis != "K":
                continue
            image = convert(a, target)
            total = QSymElement.zero(target)
            for piece in pieces:
                total += convert(piece, target)
            assert image == total
            # conversions scale every degree to one denominator
            _assert_canonical(image)
        if basis == "L":
            sums = {}
            for piece in pieces:
                for key, v in coproduct(piece).terms.items():
                    sums[key] = sums.get(key, 0) + v
            cop = coproduct(a)
            assert cop == TensorElement(("L", "L"), sums)
            _assert_canonical(cop)


def _by_fractions(elem, fn):
    """map_terms taken entry by entry in Fractions."""
    acc = {}
    for comp, coeff in elem.terms.items():
        for image_comp, v in fn(comp).terms.items():
            acc[image_comp] = acc.get(image_comp, 0) + coeff * v
    return {c: v for c, v in acc.items() if v}


def _legs_by_fractions(tensor, left_fn, right_fn):
    """map_legs taken entry by entry in Fractions."""
    acc = {}
    for (cl, cr), coeff in tensor.terms.items():
        for l2, vl in left_fn(cl).terms.items():
            for r2, vr in right_fn(cr).terms.items():
                acc[l2, r2] = acc.get((l2, r2), 0) + coeff * vl * vr
    return {key: v for key, v in acc.items() if v}


def _seeded_map(rng, basis):
    """A term map with seeded images: rational coefficients of both signs
    and mixed denominators, some images zero, and one image negated so that
    two terms can cancel.  Each composition's image is drawn once."""
    images = {}

    def fn(comp):
        if comp not in images:
            pick = rng.randrange(5)
            if pick == 0:
                images[comp] = QSymElement.zero(basis)
            elif pick == 1 and images:
                images[comp] = -images[rng.choice(sorted(images))]
            else:
                images[comp] = _inhomogeneous(basis, rng)
        return images[comp]

    return fn


@pytest.mark.parametrize("seed", range(6))
def test_linear_extensions_sum_as_fractions_do(seed):
    """map_terms and map_legs sum in ints over one denominator: the same
    terms as the entry-by-entry Fraction sums, in canonical form."""
    rng = random.Random(f"linear/{seed}")
    for basis in ("M", "L", "eta"):
        elem = _inhomogeneous(basis, rng)
        fn = _seeded_map(rng, "M")
        got = elem.map_terms(fn, "M")
        assert got.basis == "M" and dict(got.terms) == _by_fractions(elem, fn)
        _assert_canonical(got)
        tensor = coproduct(elem)
        left, right = _seeded_map(rng, "eta"), _seeded_map(rng, "L")
        legs = tensor.map_legs(left, right, ["eta", "L"])
        assert legs.bases == ("eta", "L")
        assert dict(legs.terms) == _legs_by_fractions(tensor, left, right)
        _assert_canonical(legs)


def _counting_fractions(monkeypatch):
    """A list that the arguments of each Fraction built are appended to."""
    built = []
    real = Fraction.__new__

    def counting(cls, *args, **kwargs):
        built.append(args)
        return real(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counting)
    return built


@pytest.mark.parametrize("seed", range(4))
def test_map_legs_maps_and_clears_each_distinct_leg_once(monkeypatch, seed):
    """On tensors whose legs repeat, map_legs equals the entry-by-entry
    Fraction sum, calls each leg map once per distinct code and call, and
    reads each image's numerators and denominator as they are stored: a
    second call, whose images are all built, builds no Fraction."""
    rng = random.Random(f"legs/{seed}")
    pool = [comp for n in range(4) for comp in compositions(n)]
    tensor = TensorElement(
        ("M", "L"),
        [
            ((rng.choice(pool), rng.choice(pool)), Fraction(rng.randint(-9, 9), rng.randint(1, 6)))
            for _ in range(40)
        ],
    )
    lefts, rights = Counter(l for l, _ in tensor.terms), Counter(r for _, r in tensor.terms)
    assert max(lefts.values()) > 1 and max(rights.values()) > 1
    calls = Counter()

    def counted(side, fn):
        def mapped(comp):
            calls[side, comp] += 1
            return fn(comp)

        return mapped

    left, right = _seeded_map(rng, "eta"), _seeded_map(rng, "L")
    for run in (1, 2):
        built = _counting_fractions(monkeypatch)
        legs = tensor.map_legs(counted("l", left), counted("r", right), ("eta", "L"))
        monkeypatch.undo()
        assert dict(legs.terms) == _legs_by_fractions(tensor, left, right)
        _assert_canonical(legs)
        assert calls == Counter(
            {**{("l", c): run for c in lefts}, **{("r", c): run for c in rights}}
        )
        assert run == 1 or built == []


def test_eta_coproduct_legs_build_no_fraction(monkeypatch):
    """The 64 map_legs calls of check_eta_coproduct map 256 tensor terms
    through one cache of the 64 M images of eta_alpha, n <= 6, reading each
    image's numerators and denominator as stored: no Fraction is built, and
    each result is the coproduct of the M image."""
    in_m = functools.cache(lambda c: convert(QSymElement.term("eta", c), "M"))
    comps = [alpha for n in range(7) for alpha in compositions(n)]
    tensors = [coproduct(QSymElement.term("eta", alpha)) for alpha in comps]
    for alpha in comps:
        in_m(alpha)
    built = _counting_fractions(monkeypatch)
    legs = [tensor.map_legs(in_m, in_m, ("M", "M")) for tensor in tensors]
    monkeypatch.undo()
    assert built == []
    assert (len(tensors), sum(len(t.terms) for t in tensors)) == (64, 256)
    assert legs == [coproduct(in_m(alpha)) for alpha in comps]


def test_linear_extensions_of_cancelling_and_empty_inputs():
    """Sums that cancel entirely, zero images and empty inputs give the zero
    element with the asked basis; a wrong image basis is still refused."""
    half, third = Fraction(1, 2), Fraction(-1, 3)
    image = QSymElement("M", {(1, 1): third, (2,): half})
    same = lambda c: image
    elem = QSymElement("L", {(1,): half, (2,): -half})
    assert elem.map_terms(same, "M") == QSymElement.zero("M")
    tensor = TensorElement(("L", "L"), {((1,), ()): 3, ((), (1,)): -3})
    assert tensor.map_legs(same, same, ("M", "M")) == TensorElement(("M", "M"))
    assert elem.map_terms(lambda c: QSymElement.zero("K"), "K") == QSymElement.zero("K")
    assert QSymElement.zero("eta").map_terms(same, "M") == QSymElement.zero("M")
    assert TensorElement(("L", "M")).map_legs(same, same, ("M", "M")).is_zero
    with pytest.raises(ValueError, match="term map returned basis M, expected L"):
        elem.map_terms(same, "L")
    with pytest.raises(ValueError, match="leg maps returned unexpected bases"):
        tensor.map_legs(same, same, ("M", "L"))


def test_linear_extensions_build_no_fraction(monkeypatch):
    """With the images built beforehand, map_terms and map_legs build no
    Fraction: they read numerators and denominators as stored, and their
    results are canonical."""
    rng = random.Random(29)
    elem = _inhomogeneous("M", rng)
    tensor = coproduct(elem)
    comps = set(elem.terms) | {comp for pair in tensor.terms for comp in pair}
    images = {comp: _inhomogeneous("eta", rng) for comp in comps}
    built = _counting_fractions(monkeypatch)
    got = elem.map_terms(images.__getitem__, "eta")
    legs = tensor.map_legs(images.__getitem__, images.__getitem__, ("eta", "eta"))
    monkeypatch.undo()
    assert built == []
    assert dict(got.terms) == _by_fractions(elem, images.__getitem__)
    assert dict(legs.terms) == _legs_by_fractions(tensor, images.__getitem__, images.__getitem__)
    assert len(set(got.terms.values())) > 1 and len(set(legs.terms.values())) > 1
    _assert_canonical(got)
    _assert_canonical(legs)


@pytest.mark.parametrize(
    "basis,left,right,other",
    [("eta", (1, 2), (2, 1), (1, 1, 1)), ("K", (1, 3), (3, 1), (1,))],
)
def test_products_whose_walks_cancel_come_back_canonical(monkeypatch, basis, left, right, other):
    """(x_left / 2 - x_right / 2) * 2 x_other: the walks add into one
    accumulator where some codes cancel to 0 and every numerator is even
    over a denominator of 2, so the result drops the zeros and the 2.  (K
    operands are converted to eta first; the product's sum is the last one
    normalised.)"""
    a = QSymElement(basis, {left: Fraction(1, 2), right: Fraction(-1, 2)})
    b = QSymElement.term(basis, other, 2)
    zeros = []
    real = core._raw
    monkeypatch.setattr(core, "_raw", lambda *args: zeros.append(0 in args[1].values()) or real(*args))
    prod = multiply(a, b)
    monkeypatch.undo()
    assert zeros[-1]
    assert prod._den == 1 and prod._terms
    _assert_canonical(prod)
    term = lambda comp, coeff: QSymElement.term(basis, comp, coeff)
    assert prod == multiply(term(left, 1), term(other, 1)) - multiply(term(right, 1), term(other, 1))


@pytest.mark.parametrize("basis", ["M", "L", "eta"])
def test_a_walk_adds_its_scaled_product_into_the_accumulator(basis):
    """_pair_walk is the kernel at scale 1 into an empty map, with no zero
    entry; at scale -3 the kernel adds -3 times it into a filled map."""
    codes = [core._index_code(basis, comp) for n in range(8) for comp in compositions(n)]
    for ca in codes:
        for cb in codes:
            if ca.bit_length() + cb.bit_length() > 8:
                continue
            walk = core._pair_walk(basis, ca, cb)
            assert all(walk.values())
            acc = {}
            core._product_into(acc, 1, basis, ca, cb)
            assert acc == walk
            filled = {code: 5 for code in list(walk)[::2] + [ca | 1 << 20]}
            acc = dict(filled)
            core._product_into(acc, -3, basis, ca, cb)
            want = dict(filled)
            for code, c in walk.items():
                want[code] = want.get(code, 0) - 3 * c
            assert acc == want


def test_product_walks_are_refused_past_the_walk_budget(monkeypatch):
    """A walk that could hold more than _WALK_BUDGET map entries counts its
    two live grid rows state by state.  At a budget of 100, (1^3)(1^3) is
    counted and holds at most 60, so it runs; (1^6)(1^6) holds over 800 in
    every basis and is refused; (1)(1,1) can hold at most 48 and is not
    counted."""
    assert core._WALK_BUDGET == 1 << 24
    ones = {k: (1,) * k for k in (1, 2, 3, 6)}
    want = {
        basis: [multiply(QSymElement.term(basis, ones[a]), QSymElement.term(basis, ones[b]))
                for a, b in ((3, 3), (1, 2))]
        for basis in ("M", "L", "eta")
    }
    monkeypatch.setattr(core, "_WALK_BUDGET", 100)
    assert core._live_counter("M", 2, 3) is None
    assert core._live_counter("M", 3, 6) is not None
    for basis, products in want.items():
        term = lambda k: QSymElement.term(basis, ones[k])
        assert [multiply(term(3), term(3)), multiply(term(1), term(2))] == products
        message = f"the {basis} product in degree 12 holds [0-9]+ partial products at once, "
        with pytest.raises(ValueError, match=message + "over the budget of 100$"):
            multiply(term(6), term(6))


def _logged_live_counts(monkeypatch):
    """A list of the entries each counted state hands its walk's live
    counter, with None where a row is finished."""
    log = []
    real = core._live_counter

    def logging(*args):
        count = real(*args)

        def logged(*maps):
            log.append(sum(map(len, filter(None, maps))) if maps else None)
            return count(*maps)

        return count and logged

    monkeypatch.setattr(core, "_live_counter", logging)
    return log


def _two_row_peak(log):
    """The largest count of two whole rows: what a count taken once per
    row would have compared with the budget."""
    rows, now = [0], 0
    for entries in log:
        if entries is None:
            rows.append(now)
            now = 0
        else:
            now += entries
    return max(before + now for before, now in zip(rows, rows[1:] + [now]))


@pytest.mark.parametrize("basis", ["M", "L", "eta"])
def test_a_walk_is_refused_within_one_state_of_its_budget(monkeypatch, basis):
    """At a budget of 100, (1^6)(1^6) is refused once the state that passes
    the budget is counted, not a row later.  The running count at a row's
    end is the two rows' total, so over every budget around the two-row
    peak of (1^4)(1^4), a walk is refused exactly when that peak is over."""
    term = lambda k: QSymElement.term(basis, (1,) * k)
    log = _logged_live_counts(monkeypatch)
    monkeypatch.setattr(core, "_WALK_BUDGET", 100)
    with pytest.raises(ValueError, match="over the budget of 100$") as refused:
        multiply(term(6), term(6))
    held = int(re.search(r"holds (\d+) partial", str(refused.value)).group(1))
    assert held - log[-1] <= 100 < held
    # 5 states a row, degree 8: counted below 5 << 9 = 2560 entries
    monkeypatch.setattr(core, "_WALK_BUDGET", 2559)
    log.clear()
    want = multiply(term(4), term(4))
    peak = _two_row_peak(log)
    for budget in sorted({0, peak // 2, *range(peak - 3, peak + 4)}):
        monkeypatch.setattr(core, "_WALK_BUDGET", budget)
        if peak > budget:
            with pytest.raises(ValueError, match=f"over the budget of {budget}$"):
                multiply(term(4), term(4))
        else:
            assert multiply(term(4), term(4)) == want


def test_L_product_through_M():
    prod = multiply(L(1), L(1))
    assert prod == QSymElement("L", {(1, 1): 1, (2,): 1})
    # shuffle rule on permutation representatives: L_1 * L_1 = L_12 + L_21
    assert prod == L_of_permutation((1, 2)) + L_of_permutation((2, 1))


def test_K_product_lands_in_eta():
    prod = multiply(QSymElement.term("K", (1,)), QSymElement.term("K", (1,)))
    assert prod.basis == "eta"
    assert certify_equal(
        prod,
        multiply(convert(K(1), "M"), convert(K(1), "M")),
    )


def test_product_mismatched_basis():
    with pytest.raises(ValueError):
        multiply(M(1), eta(1))


def test_product_commutative_associative():
    rng = random.Random(11)
    for basis in ("M", "L", "eta", "K"):
        for _ in range(6):
            sizes = [rng.randint(0, 2) for _ in range(3)]
            while sum(sizes) > 7:
                sizes[rng.randrange(3)] = 0
            picks = []
            for n in sizes:
                pool = list(odd_compositions(n)) if basis == "K" else list(compositions(n))
                picks.append(QSymElement.term(basis, rng.choice(pool)))
            f, g, h = picks
            fg = multiply(f, g)
            assert fg == multiply(g, f)
            lhs = multiply(fg, convert(h, fg.basis))
            hg = multiply(g, h)
            rhs = multiply(convert(f, hg.basis), hg)
            assert certify_equal(lhs, rhs)
            via_m = multiply(convert(f, "M"), convert(g, "M"))
            assert certify_equal(fg, via_m)


def test_product_adds_degrees():
    for basis in ("M", "eta"):
        a = QSymElement.term(basis, (2, 1))
        b = QSymElement.term(basis, (1, 1))
        assert multiply(a, b).degree == 5


# ---------------------------------------------------------------------------
# coproducts


def test_coproduct_deconcatenation():
    t = coproduct(eta(4))
    assert t == TensorElement(("eta", "eta"), {((), (4,)): 1, ((4,), ()): 1})
    t = coproduct(eta(1, 2))
    assert t == TensorElement(
        ("eta", "eta"),
        {((), (1, 2)): 1, ((1,), (2,)): 1, ((1, 2), ()): 1},
    )
    t = coproduct(M(2, 1))
    assert t == TensorElement(
        ("M", "M"), {((), (2, 1)): 1, ((2,), (1,)): 1, ((2, 1), ()): 1}
    )


@pytest.mark.parametrize("n", range(7))
def test_eta_coproduct_basis_change(n):
    for alpha in compositions(n):
        lhs = coproduct(eta(*alpha)).map_legs(
            lambda c: convert(eta(*c), "M"), lambda c: convert(eta(*c), "M"), ("M", "M")
        )
        rhs = coproduct(convert(eta(*alpha), "M"))
        assert lhs == rhs


def test_coproduct_degrees_sum():
    for alpha in [(3, 1), (2, 2, 1), (4,)]:
        for (l, r), _ in coproduct(M(*alpha)).terms.items():
            assert sum(l) + sum(r) == sum(alpha)


@pytest.mark.parametrize("n", range(6))
def test_coassociativity(n):
    # (Delta x id)Delta == (id x Delta)Delta on eta terms, keyed by triples
    for alpha in compositions(n):
        base = coproduct(eta(*alpha))
        left = {}
        right = {}
        for (l, r), c in base.terms.items():
            for k in range(len(l) + 1):
                key = (l[:k], l[k:], r)
                left[key] = left.get(key, 0) + c
            for k in range(len(r) + 1):
                key = (l, r[:k], r[k:])
                right[key] = right.get(key, 0) + c
        assert left == right


@pytest.mark.parametrize("n", range(8))
def test_L_coproduct_matches_M_route(n):
    for alpha in compositions(n):
        via_m = coproduct(convert(L(*alpha), "M")).map_legs(
            lambda c: convert(M(*c), "L"), lambda c: convert(M(*c), "L"), ("L", "L")
        )
        assert coproduct(L(*alpha)) == via_m


def test_coproduct_L_and_K_routes():
    t = coproduct(L(2, 1))
    assert t.bases == ("L", "L")
    back = t.map_legs(lambda c: convert(L(*c), "M"), lambda c: convert(L(*c), "M"), ("M", "M"))
    assert back == coproduct(convert(L(2, 1), "M"))
    t = coproduct(QSymElement.term("K", (3,)))
    assert t.bases == ("eta", "eta")


# ---------------------------------------------------------------------------
# antipodes


def test_antipode_M():
    assert antipode(M(6)) == M(6, coeff=-1)
    assert antipode(QSymElement.unit("M")) == QSymElement.unit("M")
    assert antipode(M(1, 1)) == QSymElement("M", {(1, 1): 1, (2,): 1})


def test_antipode_eta():
    assert antipode(eta(1, 3, 1)) == eta(1, 3, 1, coeff=-1)
    assert antipode(eta(2, 5)) == eta(5, 2)


def test_antipode_L():
    assert antipode(L(1)) == L(1, coeff=-1)
    assert antipode(L(2, 1)) == L(2, 1, coeff=-1)
    assert antipode(QSymElement.unit("L")) == QSymElement.unit("L")


@pytest.mark.parametrize("n", range(7))
def test_antipode_involution_and_routes(n):
    for alpha in compositions(n):
        for basis in ("M", "L", "eta"):
            elem = QSymElement.term(basis, alpha)
            assert antipode(antipode(elem)) == elem
        assert convert(antipode(eta(*alpha)), "M") == antipode(convert(eta(*alpha), "M"))
        assert convert(antipode(QSymElement.term("L", alpha)), "M") == antipode(
            convert(L(*alpha), "M")
        )


def test_antipode_K_routes_through_eta():
    s = antipode(QSymElement.term("K", (3,)))
    assert s.basis == "eta"
    assert s == antipode(convert(K(3), "eta"))


def test_antipode_is_algebra_anti_endomorphism():
    # QSym is commutative, so S(fg) = S(f)S(g)
    for total in range(7):
        for na in range(total + 1):
            for alpha in compositions(na):
                for beta in compositions(total - na):
                    f, g = eta(*alpha), eta(*beta)
                    assert antipode(multiply(f, g)) == multiply(
                        antipode(f), antipode(g)
                    )


@pytest.mark.parametrize("n", range(6))
def test_hopf_antipode_axiom(n):
    # K has no coproduct of its own: the axiom runs on its eta image
    for basis in ("M", "L", "eta", "K"):
        legs = "eta" if basis == "K" else basis
        for alpha in odd_compositions(n) if basis == "K" else compositions(n):
            elem = QSymElement.term(basis, alpha)
            folded = coproduct(elem).map_legs(
                lambda c: antipode(QSymElement.term(legs, c)),
                lambda c: QSymElement.term(legs, c),
                (legs, legs),
            ).multiply_legs()
            expected = QSymElement.unit(legs).scale(elem.counit())
            assert certify_equal(folded, expected)


def test_composition_of_mask_inverts_descent_mask():
    for n in range(15):
        for comp in compositions(n):
            assert _composition_of_mask(n, _descent_mask(comp)) == comp
    # masks of 16 to 39 bits cross byte boundaries, with empty bytes between
    rng = random.Random(17)
    for _ in range(400):
        n = rng.randint(17, 40)
        cuts = sorted(rng.sample(range(1, n), rng.randint(0, min(n - 1, 8))))
        bounds = [0, *cuts, n]
        comp = tuple(b - a for a, b in zip(bounds, bounds[1:]))
        assert _composition_of_mask(n, _descent_mask(comp)) == comp


# ---------------------------------------------------------------------------
# int numerators over one denominator per element


def _seeded_pair(basis, seed):
    """Two seeded inhomogeneous elements of basis, with mixed denominators."""
    rng = random.Random(f"canonical/{basis}/{seed}")
    return _inhomogeneous(basis, rng), _inhomogeneous(basis, rng)


def _kernel_outputs(basis, seed):
    """Every kernel's output on a seeded pair of elements of basis."""
    a, b = _seeded_pair(basis, seed)
    outs = [a, b, a + b, a - b, a - a, -a, a.scale(Fraction(-6, 5)), a.scale(0), 3 * b]
    outs += [multiply(a, b), antipode(a), coproduct(a), coproduct(b).multiply_legs()]
    targets = ("M", "L", "eta", "K") if basis in ("K", "eta") else ("M", "L", "eta")
    for target in targets:
        try:
            outs.append(convert(a, target))
        except NotInPeakSpanError as err:  # an eta element with an even part
            outs.append(err.residual)
    mapped = a.map_terms(lambda c: convert(QSymElement.term(basis, c), "M"), "M")
    legs = coproduct(b).map_legs(
        lambda c: QSymElement.term("L", c, Fraction(1, len(c) + 1)),
        lambda c: QSymElement.term("eta", c, Fraction(2, len(c) + 2)),
        ("L", "eta"),
    )
    outs += [mapped, legs, eta_product((1, 2), (2, 1)), qsym.universal_to_eta((2, 3, 1), (1, 2, 1))]
    return outs


@pytest.mark.parametrize("basis", ["M", "L", "eta", "K"])
@pytest.mark.parametrize("seed", range(3))
def test_every_kernel_output_is_canonical(basis, seed):
    """No zero numerator, a denominator of at least 1, and gcd 1 of the
    denominator and the numerators, after every kernel."""
    for out in _kernel_outputs(basis, seed):
        _assert_canonical(out)


def test_sums_divide_out_common_factors():
    """1/2 M[2] + 3/2 M[1,1] is stored as {code: 1, 3} over 2; doubled, as
    {1, 3} over 1; and a sum that cancels as the zero element, over 1."""
    a = QSymElement("M", {(2,): Fraction(1, 2), (1, 1): Fraction(3, 2)})
    assert (a._terms, a._den) == ({0b10: 1, 0b11: 3}, 2)
    assert ((a + a)._terms, (a + a)._den) == ({0b10: 1, 0b11: 3}, 1)
    assert (a.scale(4)._terms, a.scale(4)._den) == ({0b10: 2, 0b11: 6}, 1)
    zero = a - a
    assert (zero._terms, zero._den) == ({}, 1) and zero == QSymElement.zero("M")


def _routes(x):
    """x reached by other routes: the constructor, scale, +, a convert
    round trip and a product with the unit (in eta for K, whose products
    are eta-tagged)."""
    through = "eta" if x.basis == "K" else "M" if x.basis != "M" else "L"
    product = multiply(x, QSymElement.unit(x.basis))
    return [
        QSymElement(x.basis, dict(x.terms)),
        QSymElement(x.basis, [(c, str(v)) for c, v in x.terms.items()]),
        x.scale(6).scale(Fraction(1, 6)),
        x + QSymElement.zero(x.basis),
        (x + x).scale(Fraction(1, 2)),
        x.scale(Fraction(7, 3)) - x.scale(Fraction(4, 3)),
        convert(convert(x, through), x.basis),
        product if x.basis != "K" else convert(product, "K"),
    ]


@pytest.mark.parametrize("basis", ["M", "L", "eta", "K"])
def test_equality_and_hash_follow_the_fraction_maps(basis):
    """Elements reached by different routes are equal and hash alike
    exactly when their bases and terms as Fraction maps are equal."""
    for seed in range(3):
        for x in _seeded_pair(basis, seed):
            for y in _routes(x):
                assert y.basis == x.basis and dict(y.terms) == dict(x.terms)
                assert y == x and hash(y) == hash(x)
                _assert_canonical(y)
            for other in (x.scale(2), x + QSymElement.term(basis, (1,), Fraction(1, 3))):
                assert (other == x) == (dict(other.terms) == dict(x.terms)) is False
    tensors = [coproduct(x) for seed in range(3) for x in _seeded_pair(basis, seed)]
    for s, t in itertools.product(tensors, repeat=2):
        same = s.bases == t.bases and dict(s.terms) == dict(t.terms)
        assert (s == t) == same and (not same or hash(s) == hash(t))
    tensor = tensors[0]
    rebuilt = TensorElement(tensor.bases, [(k, str(v)) for k, v in tensor.terms.items()])
    assert rebuilt == tensor and hash(rebuilt) == hash(tensor)


def _json_coeff(value):
    return str(value.numerator) if value.denominator == 1 else f"{value.numerator}/{value.denominator}"


@pytest.mark.parametrize("basis", ["M", "L", "eta", "K"])
def test_public_values_are_the_exact_fractions(basis):
    """terms, coefficient, counit, sorted_terms and to_json_dict give the
    exact coefficients as Fractions (strings in JSON), on elements built
    from a Fraction map and on kernel outputs checked against a Fraction
    sum; len(terms) builds no Fraction."""
    rng = random.Random(f"public/{basis}")
    pool = [c for n in range(6) for c in (odd_compositions(n) if basis == "K" else compositions(n))]
    for _ in range(5):
        items = [
            (rng.choice(pool), Fraction(rng.randint(-12, 12), rng.choice((1, 2, 4, 6, 9))))
            for _ in range(8)
        ]
        want = {}
        for comp, v in items:
            want[comp] = want.get(comp, 0) + v
        want = {c: v for c, v in want.items() if v}
        x = QSymElement(basis, items)
        assert dict(x.terms) == want and len(x.terms) == len(want)
        assert all(type(v) is Fraction for v in x.terms.values())
        assert all(type(v) is Fraction for _, v in x.terms.items())
        for comp in pool:
            got = x.coefficient(comp)
            assert type(got) is Fraction and got == want.get(comp, 0)
            if comp in want:
                assert x.terms[comp] == want[comp] and type(x.terms[comp]) is Fraction
        assert type(x.counit()) is Fraction and x.counit() == want.get((), 0)
        ordered = sorted(want.items(), key=lambda kv: (sum(kv[0]), len(kv[0]), kv[0]))
        assert x.sorted_terms() == ordered
        assert all(type(v) is Fraction for _, v in x.sorted_terms())
        assert x.to_json_dict() == {
            "basis": basis,
            "terms": [{"comp": list(c), "coeff": _json_coeff(v)} for c, v in ordered],
        }
        image = lambda c: convert(QSymElement.term(basis, c), "eta")
        mapped = x.map_terms(image, "eta")
        assert dict(mapped.terms) == _by_fractions(x, image)
        tensor = coproduct(x)
        cut = {}
        for comp, v in want.items():
            for pair, w in coproduct(QSymElement.term(basis, comp)).terms.items():
                cut[pair] = cut.get(pair, 0) + v * w
        cut = {k: v for k, v in cut.items() if v}
        assert dict(tensor.terms) == cut
        assert tensor.to_json_dict()["terms"] == [
            {"comp_left": list(l), "comp_right": list(r), "coeff": _json_coeff(v)}
            for (l, r), v in tensor.sorted_terms()
        ]
        assert all(type(v) is Fraction for _, v in tensor.sorted_terms())


def test_signed_subset_sum_is_sized_before_its_loop():
    """2^21 subsets, the mask budget, are still summed; 2^22 and 2^40 are
    refused with their count before the first one."""
    assert signed_subset_sum(range(21), [*range(21), 99]) == 1 << 21
    assert signed_subset_sum(range(21), range(20)) == 0
    with pytest.raises(ValueError, match="of 22 elements needs 4194304 subsets"):
        signed_subset_sum(range(22), range(22))
    start = time.process_time()
    with pytest.raises(ValueError) as info:
        signed_subset_sum(range(40), range(40))
    assert time.process_time() - start < 1
    assert str(info.value) == (
        "the signed sum over the subsets of 40 elements needs 1099511627776 subsets, "
        "over the budget of 2097152"
    )


def test_signed_subset_sum_reads_unsorted_and_repeated_elements():
    assert signed_subset_sum([3, 1, 2], (2, 3, 1)) == 8
    assert signed_subset_sum([3, 1, 3, 1], [1, 3, 3]) == 4
    assert signed_subset_sum((5, 2, 5), [2]) == 0
    assert signed_subset_sum(iter([2, 2, 2]), iter([2, 9])) == 2
    assert signed_subset_sum([], []) == 1
    rng = random.Random(32)
    for _ in range(200):
        s = [rng.randint(1, 6) for _ in range(rng.randint(0, 8))]
        t = [rng.randint(1, 6) for _ in range(rng.randint(0, 8))]
        assert signed_subset_sum(s, t) == (2 ** len(set(s)) if set(s) <= set(t) else 0)
