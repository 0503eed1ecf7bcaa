"""Truncated polynomial oracle: series, arithmetic, certification."""

import importlib
import inspect
import itertools
import pkgutil
from fractions import Fraction

import pytest

import qsym
from qsym.combinatorics import compositions, odd_compositions
from qsym.core import QSymElement, convert, eta_to_M, L_to_M, multiply
from qsym.expansion import (
    TruncatedPoly,
    _m_coefficients,
    certify_equal,
    embed,
    expand,
    format_poly,
    poly_add,
    poly_mul,
    poly_scale,
    poly_sub,
)


def M(*parts, coeff=1):
    return QSymElement.term("M", parts, coeff)


def eta(*parts, coeff=1):
    return QSymElement.term("eta", parts, coeff)


def test_expand_M_and_L_golden():
    m = expand(M(2, 1), 3, 3)
    assert dict(m.terms) == {
        ((1, 2), (2, 1)): 1,
        ((1, 2), (3, 1)): 1,
        ((2, 2), (3, 1)): 1,
    }
    l = expand(QSymElement.term("L", (2, 1)), 3, 3)
    assert dict(l.terms) == {
        ((1, 2), (2, 1)): 1,
        ((1, 2), (3, 1)): 1,
        ((1, 1), (2, 1), (3, 1)): 1,
        ((2, 2), (3, 1)): 1,
    }


def test_expand_eta_single_part():
    for a in (1, 3):
        p = expand(eta(a), 4, a)
        assert dict(p.terms) == {((i, a),): 2 for i in range(1, 5)}


def test_expand_K_series():
    # K_(3) at N=2: triples (1,1,2) and (1,2,2) each contribute 2^2 to
    # x1^2*x2 resp. x1*x2^2; the constant-index triples fail i1 < i3
    p = expand(QSymElement.term("K", (3,)), 2, 3)
    assert dict(p.terms) == {((1, 2), (2, 1)): 4, ((1, 1), (2, 2)): 4}


def test_expand_unit_and_zero():
    assert dict(expand(QSymElement.unit("M"), 3, 2).terms) == {(): 1}
    assert expand(QSymElement.zero("eta"), 3, 2).is_zero
    assert dict(expand(QSymElement.unit("M"), 0, 0).terms) == {(): 1}


def test_expand_refuses_low_degree():
    with pytest.raises(ValueError):
        expand(M(2, 1), 3, 2)


@pytest.mark.parametrize("elem", [M(1, 2), QSymElement.unit("M"), QSymElement.zero("eta")])
def test_expand_refuses_negative_nvars(elem):
    with pytest.raises(ValueError, match="nvars must be nonnegative"):
        expand(elem, -1)


def test_expand_is_linear():
    a = eta_to_M((2, 1))
    b = L_to_M((1, 2))
    c = Fraction(3, 2)
    lhs = expand(a + a.scale(0) + b.scale(c), 3, 3)
    rhs = poly_add(expand(a, 3, 3), poly_scale(expand(b, 3, 3), c))
    assert lhs == rhs


def test_expand_intertwines_product():
    a, b = M(1), M(2)
    lhs = expand(multiply(a, b), 3, 3)
    rhs = poly_mul(expand(a, 3, 1), expand(b, 3, 2))
    assert lhs == rhs
    assert not rhs.truncated


def _is_quasisymmetric(poly):
    by_comp = {}
    for key, coeff in poly.terms.items():
        comp = tuple(e for _, e in key)
        idxs = tuple(v for v, _ in key)
        by_comp.setdefault(comp, {})[idxs] = coeff
    for comp, found in by_comp.items():
        want = len(list(itertools.combinations(range(1, poly.nvars + 1), len(comp))))
        if len(found) != want:
            return False
        if len(set(found.values())) != 1:
            return False
    return True


@pytest.mark.parametrize("basis,comp", [
    ("M", (2, 1)),
    ("L", (1, 2)),
    ("K", (3, 1)),
    ("eta", (2, 2)),
    ("eta", (1, 1, 1)),
])
def test_expansions_are_quasisymmetric(basis, comp):
    elem = QSymElement.term(basis, comp)
    d = sum(comp)
    assert _is_quasisymmetric(expand(elem, d + 1, d))


def test_certify_equal():
    assert certify_equal(eta_to_M((1, 3, 1)), eta(1, 3, 1))
    assert certify_equal(L_to_M((2, 1)), QSymElement.term("L", (2, 1)))
    assert not certify_equal(M(1, 1), M(2))
    a = eta_to_M((2, 1))
    assert certify_equal(a, a)
    assert certify_equal(a, a + M(9).scale(0))
    # within one basis, certification agrees with term equality; symmetric
    for x, y in [(M(2, 1), M(2, 1)), (M(2, 1), M(1, 2)), (eta(3), eta(1, 1, 1))]:
        assert certify_equal(x, y) == (x == y)
        assert certify_equal(x, y) == certify_equal(y, x)
    assert certify_equal(eta(1, 3, 1), eta_to_M((1, 3, 1)))


@pytest.mark.parametrize("n", range(8))
def test_m_coefficients_match_expansion(n):
    # every single M, L, eta and odd K term of degree n (n = 0: the unit)
    terms = [(basis, comp) for basis in ("M", "L", "eta") for comp in compositions(n)]
    terms += [("K", comp) for comp in odd_compositions(n)]
    for basis, comp in terms:
        poly = expand(QSymElement.term(basis, comp), n, n)
        got = _m_coefficients(basis, comp)
        assert set(got) <= set(compositions(n))
        for b in compositions(n):
            want = poly.coefficient(enumerate(b, 1))  # x1^b1 ... xk^bk
            assert got.get(b, 0) == want, (basis, comp, b)


def _dense(basis, n, den):
    return QSymElement(
        basis, [(comp, Fraction(i + 1, den)) for i, comp in enumerate(compositions(n))]
    )


_MIXED = QSymElement(
    "L", {(): Fraction(1, 3), (2,): Fraction(-2, 5), (1, 2): 3, (2, 1, 2): Fraction(1, 7)}
)
_SENSITIVITY = [_dense(basis, n, 3) for n in range(7) for basis in ("L", "eta")] + [_MIXED]


@pytest.mark.parametrize("x", _SENSITIVITY, ids=lambda x: f"{x.basis}-{x.degree}")
def test_certify_equal_sees_every_M_coefficient(x):
    # x against its M form, then against that form plus M_b/2: every
    # coefficient of degree <= deg x must be able to break certification
    in_m = convert(x, "M")
    assert certify_equal(x, in_m)
    for n in range(x.degree + 1):
        for b in compositions(n):
            assert not certify_equal(x, in_m + QSymElement.term("M", b, Fraction(1, 2))), b


def test_certify_equal_reaches_no_conversion(monkeypatch):
    import qsym.core
    import qsym.expansion

    cases = [(eta(1, 3, 1), eta_to_M((1, 3, 1))), (QSymElement.term("K", (3, 1)), M(4))]
    cases += [(QSymElement.term("L", (2, 1)), L_to_M((2, 1)))]

    def refuse(*args):
        raise AssertionError("the oracle reached a basis conversion")

    for name in ("convert", "_lattice_transform", "K_to_eta", "eta_to_M", "M_to_eta",
                 "L_to_M", "M_to_L", "eta_to_L", "K_to_M"):
        for module in (qsym.core, qsym.expansion):
            monkeypatch.setattr(module, name, refuse, raising=False)
    _m_coefficients.cache_clear()
    assert [certify_equal(a, b) for a, b in cases] == [True, False, True]


def test_every_lru_cache_is_bounded():
    """No memo in qsym grows without bound.  Every cache is module level, so
    scanning module attributes finds as many as the source declares."""
    bounded = 0
    for info in pkgutil.iter_modules(qsym.__path__):
        module = importlib.import_module(f"qsym.{info.name}")
        caches = [
            obj for obj in vars(module).values()
            if hasattr(obj, "cache_info") and obj.__module__ == module.__name__
        ]
        assert len(caches) == inspect.getsource(module).count("lru_cache("), module
        for cache in caches:
            assert cache.cache_info().maxsize is not None, cache.__name__
        bounded += len(caches)
    assert bounded >= 5


def test_poly_construction_validation():
    TruncatedPoly(2, 3, {((1, 2), (2, 1)): 1})
    with pytest.raises(ValueError):
        TruncatedPoly(2, 3, {((1, 2), (1, 1)): 1})  # repeated variable
    with pytest.raises(ValueError):
        TruncatedPoly(2, 3, {((3, 1),): 1})  # variable out of range
    with pytest.raises(ValueError):
        TruncatedPoly(2, 3, {((1, 0),): 1})  # zero exponent
    with pytest.raises(ValueError):
        TruncatedPoly(2, 1, {((1, 2),): 1})  # above the bound


def test_poly_arithmetic_bounds():
    p = TruncatedPoly(2, 2, {((1, 2),): 1})
    q = TruncatedPoly(2, 1, {((2, 1),): 2})
    s = poly_add(p, q)
    assert s.degree == 2 and not s.truncated
    prod = poly_mul(p, q)
    assert prod.degree == 3 and not prod.truncated
    assert dict(prod.terms) == {((1, 2), (2, 1)): 2}
    diff = poly_sub(p, p)
    assert diff.is_zero


def test_truncated_inputs_stay_flagged():
    p = TruncatedPoly(1, 1, {((1, 1),): 1}, truncated=True)
    q = TruncatedPoly(1, 2, {((1, 1),): 1, ((1, 2),): 1})
    prod = poly_mul(p, q)
    assert prod.truncated
    assert prod.degree == 1
    assert dict(prod.terms) == {}  # x*(x + x^2) has nothing of degree <= 1
    s = poly_add(p, q)
    assert s.truncated and s.degree == 1
    assert dict(s.terms) == {((1, 1),): 2}


def _reference_mul(p, q, bound):
    """Tuple-key product of two term dicts, monomials above bound dropped."""
    acc = {}
    for ka, va in p.terms.items():
        for kb, vb in q.terms.items():
            exps = dict(ka)
            for v, e in kb:
                exps[v] = exps.get(v, 0) + e
            if sum(exps.values()) <= bound:
                key = tuple(sorted(exps.items()))
                acc[key] = acc.get(key, 0) + va * vb
    return {key: c for key, c in acc.items() if c}


def _poly_of_degree(d, truncated=False):
    """Terms up to degree d in 3 variables, top and bottom fields at full degree."""
    terms = {(): 1}
    if d >= 1:
        terms.update({((1, d),): 2, ((3, d),): -1})
    if d >= 2:
        terms[((1, 1), (2, d - 1))] = Fraction(1, 2)
        terms[((2, 1), (3, 1))] = 3
    return TruncatedPoly(3, d, terms, truncated)


@pytest.mark.parametrize("bound", [1, 2, 3, 4, 7, 8, 15, 16])
def test_poly_mul_matches_reference_at_field_boundaries(bound):
    # exponents reach the product's bound, whose bit length sets the field width
    for d1 in range(bound + 1):
        p, q = _poly_of_degree(d1), _poly_of_degree(bound - d1)
        prod = poly_mul(p, q)
        assert dict(prod.terms) == _reference_mul(p, q, bound)
        assert ((3, bound),) in prod.terms and not prod.truncated


def test_poly_mul_truncated_operand_above_bound():
    # a truncated operand of degree 16 against one truncated at 3: its terms
    # above the bound do not fit fields of the bound's width, and must drop
    p, q = _poly_of_degree(16, truncated=True), _poly_of_degree(3, truncated=True)
    for left, right in ((p, q), (q, p), (p, _poly_of_degree(2))):
        bound = min(x.degree for x in (left, right) if x.truncated)
        prod = poly_mul(left, right)
        assert prod.truncated and prod.degree == bound
        assert dict(prod.terms) == _reference_mul(left, right, bound)
        assert prod.terms


def test_poly_mismatched_nvars():
    with pytest.raises(ValueError):
        poly_add(TruncatedPoly(1, 1), TruncatedPoly(2, 1))


def test_embed():
    p = expand(M(1), 2, 1)
    shifted = embed(p, 4, 2)
    assert dict(shifted.terms) == {((3, 1),): 1, ((4, 1),): 1}
    with pytest.raises(ValueError):
        embed(p, 3, 2)


def test_alphabet_split_examples():
    # expansion on the concatenated alphabet x_1..x_n1, x_(n1+1)..x_(n1+n2)
    p = expand(M(1), 1 + 1)
    assert dict(p.terms) == {((1, 1),): 1, ((2, 1),): 1}
    assert dict(expand(QSymElement.unit("M"), 2 + 2, 0).terms) == {(): 1}
    # blockwise sum over the deconcatenation coproduct of eta_(1,2)
    from qsym.core import coproduct

    elem = eta(1, 2)
    lhs = expand(elem, 2 + 2, 3)
    rhs = None
    for (cl, cr), coeff in coproduct(elem).terms.items():
        piece = poly_mul(
            embed(expand(eta(*cl), 2, 3), 4, 0),
            embed(expand(eta(*cr), 2, 3), 4, 2),
        )
        piece = poly_scale(piece, coeff)
        rhs = piece if rhs is None else poly_add(rhs, piece)
    assert lhs == rhs


def test_poly_json_and_format():
    p = expand(M(2, 1), 3, 3)
    data = p.to_json_dict()
    assert data["nvars"] == 3 and data["degree"] == 3
    assert data["terms"][0] == {"exps": [[1, 2], [2, 1]], "coeff": "1"}
    assert format_poly(p) == "x1^2*x2 + x1^2*x3 + x2^2*x3"
    assert format_poly(TruncatedPoly(2, 0)) == "0"
    assert format_poly(TruncatedPoly(2, 0, {(): Fraction(-1, 2)})) == "-1/2"
    assert format_poly(poly_scale(p, -1)).startswith("-x1^2*x2")


def test_format_poly_round_magnitude():
    p = TruncatedPoly(2, 4, {((1, 3),): 2, ((1, 1), (2, 1)): Fraction(1, 2)})
    assert format_poly(p) == "1/2*x1*x2 + 2*x1^3"


@pytest.mark.parametrize("n", range(6))
def test_certification_matches_basis_independence(n):
    # distinct M-basis elements always expand to distinct polynomials
    comps = list(compositions(n))
    seen = {}
    for comp in comps:
        poly = expand(M(*comp), max(n, 1), max(n, 1))
        key = frozenset(poly.terms.items())
        assert key not in seen
        seen[key] = comp
