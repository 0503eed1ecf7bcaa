"""Truncated polynomial oracle: series, arithmetic, certification."""

import importlib
import inspect
import itertools
import pkgutil
import random
from fractions import Fraction

import pytest

import qsym
from qsym import expansion
from qsym.combinatorics import (
    _code,
    compositions,
    descent_set,
    odd_compositions,
    peak_set_of_composition,
)
from qsym.core import QSymElement, convert, multiply
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
    a = convert(eta(2, 1), "M")
    b = convert(QSymElement.term("L", (1, 2)), "M")
    c = Fraction(3, 2)
    lhs = expand(a + a.scale(0) + b.scale(c), 3, 3)
    rhs = poly_add(expand(a, 3, 3), poly_scale(expand(b, 3, 3), c))
    assert lhs == rhs


def test_expand_intertwines_product():
    a, b = M(1), M(2)
    lhs = expand(multiply(a, b), 3, 3)
    rhs = poly_mul(expand(a, 3, 1), expand(b, 3, 2))
    assert lhs == rhs and rhs.degree == 3


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
    assert certify_equal(convert(eta(1, 3, 1), "M"), eta(1, 3, 1))
    l21 = QSymElement.term("L", (2, 1))
    assert certify_equal(convert(l21, "M"), l21)
    assert not certify_equal(M(1, 1), M(2))
    a = convert(eta(2, 1), "M")
    assert certify_equal(a, a)
    assert certify_equal(a, a + M(9).scale(0))
    # within one basis, certification agrees with term equality; symmetric
    for x, y in [(M(2, 1), M(2, 1)), (M(2, 1), M(1, 2)), (eta(3), eta(1, 1, 1))]:
        assert certify_equal(x, y) == (x == y)
        assert certify_equal(x, y) == certify_equal(y, x)
    assert certify_equal(eta(1, 3, 1), convert(eta(1, 3, 1), "M"))


def _series_expansion(basis, comp, nvars):
    """One basis element's full expansion in nvars variables, walked from its
    defining series over every weakly increasing index tuple: the reference
    for ``expand`` and ``_m_coefficients``, which share none of this walk.

    M:   i_1 < ... < i_k, one index per part;
    L:   one index per unit, strict ascent at every descent of comp;
    K:   one index per unit, i_(j-1) < i_(j+1) at every peak j, weight 2^#distinct;
    eta: one index per part, weight 2^#distinct.
    """
    parts = comp if basis in ("M", "eta") else (1,) * sum(comp)
    acc = {}
    for t in itertools.combinations_with_replacement(range(1, nvars + 1), len(parts)):
        if basis == "M" and len(set(t)) < len(t):
            continue
        if basis == "L" and any(t[j - 1] == t[j] for j in descent_set(comp)):
            continue
        if basis == "K" and any(t[j - 2] == t[j] for j in peak_set_of_composition(comp)):
            continue
        exps = {}
        for v, part in zip(t, parts):
            exps[v] = exps.get(v, 0) + part
        key = tuple(sorted(exps.items()))
        acc[key] = acc.get(key, 0) + (1 << len(exps) if basis in ("K", "eta") else 1)
    return acc


def _reference_expand(elem, nvars):
    """Sum of the series expansions of elem's terms: ints when every
    coefficient of elem is an integer, Fractions otherwise."""
    acc = {}
    for comp, coeff in elem.terms.items():
        for key, value in _series_expansion(elem.basis, comp, nvars).items():
            acc[key] = acc.get(key, 0) + coeff * value
    integral = all(c.denominator == 1 for c in elem.terms.values())
    return {key: int(c) if integral else c for key, c in acc.items() if c}


def _typed(terms):
    return {key: (c, type(c)) for key, c in terms.items()}


def _single_terms(n):
    """Every single M, L, eta and odd K term of degree n (n = 0: the unit)."""
    terms = [(basis, comp) for basis in ("M", "L", "eta") for comp in compositions(n)]
    return terms + [("K", comp) for comp in odd_compositions(n)]


@pytest.mark.parametrize("n", range(8))
def test_m_coefficients_match_expansion(n):
    for basis, comp in _single_terms(n):
        series = _series_expansion(basis, comp, n)
        got = _m_coefficients(basis, _code(comp))
        assert set(got) <= set(map(_code, compositions(n)))
        for b in compositions(n):
            want = series.get(tuple(enumerate(b, 1)), 0)  # x1^b1 ... xk^bk
            assert got.get(_code(b), 0) == want, (basis, comp, b)


def _tuple_keyed_m_coefficients(basis, comp):
    """The reference for ``_m_coefficients``, as it stood keyed by the tuple
    b: every weakly increasing index tuple onto some {1..k} is built (it
    starts at 1, and each later entry repeats the last or adds one), kept
    by the series' condition on its entries and weighted:

    L:   strict ascent at every descent of comp, weight 1;
    K:   i_(j-1) < i_(j+1) at every peak j of comp, weight 2^#distinct;
    eta: no condition (one index per part), weight 2^#distinct.
    """
    if basis == "M":
        return {comp: 1}
    parts = comp if basis == "eta" else (1,) * sum(comp)
    steps = itertools.product((0, 1), repeat=max(len(parts) - 1, 0))
    tuples = [tuple(itertools.accumulate(s, initial=1)) for s in steps] if parts else [()]
    if basis == "L":
        descents = descent_set(comp)
        terms = ((t, 1) for t in tuples if all(t[j - 1] < t[j] for j in descents))
    else:
        if basis == "K":
            peaks = peak_set_of_composition(comp)
            tuples = [t for t in tuples if all(t[j - 2] < t[j] for j in peaks)]
        terms = ((t, 1 << len(set(t))) for t in tuples)
    acc = {}
    for t, weight in terms:
        b = [0] * (t[-1] if t else 0)
        for v, part in zip(t, parts):
            b[v - 1] += part
        acc[tuple(b)] = acc.get(tuple(b), 0) + weight
    return {b: c for b, c in acc.items() if c}


@pytest.mark.parametrize("n", range(10))
def test_m_coefficients_by_code_match_the_tuple_keyed_walk(n):
    """Every M, L, K and eta term with n <= 9: the step-mask walk gives the
    tuple-keyed walk's coefficients, keyed by the code of b."""
    for basis, comp in _single_terms(n):
        want = {_code(b): c for b, c in _tuple_keyed_m_coefficients(basis, comp).items()}
        assert dict(_m_coefficients(basis, _code(comp))) == want, (basis, comp)


@pytest.mark.parametrize("n", range(7))
def test_expand_matches_the_series_on_single_terms(n):
    for basis, comp in _single_terms(n):
        elem = QSymElement.term(basis, comp)
        for nvars in (max(n - 1, 0), n, n + 2):
            poly = expand(elem, nvars)
            assert (poly.nvars, poly.degree) == (nvars, n)
            assert _typed(poly.terms) == _typed(_series_expansion(basis, comp, nvars)), (
                basis, comp, nvars,
            )


def test_expand_matches_the_series_on_mixed_elements():
    rng = random.Random(9)
    shapes = [(basis, comp) for n in range(6) for basis, comp in _single_terms(n)]
    for _ in range(200):
        basis = rng.choice(["M", "L", "K", "eta"])
        pool = [comp for b, comp in shapes if b == basis]
        comps = rng.sample(pool, rng.randint(1, 4))
        den = rng.choice([1, 2, 3, 5, 7])
        elem = QSymElement(basis, [(c, Fraction(rng.randint(-9, 9) or 1, den)) for c in comps])
        nvars = rng.randint(0, 6)
        degree = elem.degree + rng.randint(0, 2)
        poly = expand(elem, nvars, degree)
        assert (poly.nvars, poly.degree) == (nvars, degree)
        assert _typed(poly.terms) == _typed(_reference_expand(elem, nvars)), (elem, nvars)


def test_expand_refuses_past_its_budgets():
    # L[30] needs 2^29 series tuples; M[2,1,1] in 400 variables C(400, 3) monomials
    with pytest.raises(ValueError, match="L\\[30\\] needs 536870912 index tuples"):
        expand(QSymElement.term("L", (30,)), 30)
    with pytest.raises(ValueError, match="needs 536870912 index tuples"):
        certify_equal(QSymElement.term("eta", (1,) * 30), M(30))
    with pytest.raises(ValueError, match="needs 10586800 monomials, over the budget of 1000000"):
        expand(M(2, 1, 1), 400)
    assert len(expand(M(30), 30).terms) == 30  # an M term walks no series


def test_expand_budgets_are_inclusive(monkeypatch):
    monkeypatch.setattr(expansion, "_SERIES_BUDGET", 4)
    monkeypatch.setattr(expansion, "_MONOMIAL_BUDGET", 10)
    _m_coefficients.cache_clear()  # L[4] is refused only before it is cached
    assert len(expand(QSymElement.term("L", (3,)), 3).terms) == 10  # 4 tuples, C(5, 3) monomials
    with pytest.raises(ValueError, match="L\\[4\\] needs 8 index tuples, over the budget of 4"):
        expand(QSymElement.term("L", (4,)), 1)
    assert len(expand(M(1, 1), 5).terms) == 10
    with pytest.raises(ValueError, match="needs 15 monomials, over the budget of 10"):
        expand(M(1, 1), 6)
    with pytest.raises(ValueError, match="needs 11 monomials"):
        expand(M(1) + QSymElement.unit("M"), 10)  # C(10, 1) + C(10, 0)


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

    cases = [(eta(1, 3, 1), convert(eta(1, 3, 1), "M")), (QSymElement.term("K", (3, 1)), M(4))]
    cases += [(QSymElement.term("L", (2, 1)), convert(QSymElement.term("L", (2, 1)), "M"))]

    def refuse(*args):
        raise AssertionError("the oracle reached a basis conversion")

    for name in ("convert", "_lattice_transform"):
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
    for key in (((1, 1.5),), ((1.0, 1),), ((True, 2),), ((1, True),), ((1, "2"),)):
        with pytest.raises(ValueError, match="variables and exponents must be ints"):
            TruncatedPoly(2, 2, {key: 1})
    with pytest.raises(ValueError, match="nvars must be nonnegative, got -1"):
        TruncatedPoly(-1, 1)
    with pytest.raises(ValueError, match="degree must be nonnegative, got -2"):
        TruncatedPoly(2, -2)


@pytest.mark.parametrize("count", (2.0, 1.5, True, False, None, "2"))
def test_counts_must_be_ints(count):
    """nvars and degree bounds are ints, never floats or bools."""
    with pytest.raises(ValueError, match=f"nvars must be an int, got {count!r}"):
        TruncatedPoly(count, 1)
    with pytest.raises(ValueError, match=f"degree must be an int, got {count!r}"):
        TruncatedPoly(2, count)
    with pytest.raises(ValueError, match=f"nvars must be an int, got {count!r}"):
        expand(M(1, 2), count)
    if count is not None:  # None asks for the element's degree
        with pytest.raises(ValueError, match=f"degree must be an int, got {count!r}"):
            expand(M(1, 2), 2, count)
    q = expand(M(1), 2, 1)
    with pytest.raises(ValueError, match=f"nvars must be an int, got {count!r}"):
        embed(q, count)
    with pytest.raises(ValueError, match=f"offset must be an int, got {count!r}"):
        embed(q, 3, count)


@pytest.mark.parametrize("coeff", (0.5, 1.0, True, "1/2", None))
def test_poly_coefficients_must_be_exact(coeff):
    p = TruncatedPoly(1, 1, {((1, 1),): Fraction(1, 2)})
    builds = [lambda: TruncatedPoly(1, 1, {((1, 1),): coeff}), lambda: poly_scale(p, coeff)]
    if not isinstance(coeff, str):  # QSymElement reads strings as rationals
        builds.append(lambda: QSymElement.term("M", (1,), coeff))
    for build in builds:
        with pytest.raises(TypeError) as err:
            build()
        assert str(err.value) == f"coefficients must be exact rationals, got {coeff!r}"
    for exact in (3, Fraction(1, 4)):
        assert dict(poly_scale(p, exact).terms) == {((1, 1),): exact / 2}
        assert TruncatedPoly(1, 1, {((1, 1),): exact}).to_json_dict()["terms"]


def test_poly_arithmetic_bounds():
    p = TruncatedPoly(2, 2, {((1, 2),): 1})
    q = TruncatedPoly(2, 1, {((2, 1),): 2})
    s = poly_add(p, q)
    assert s.degree == 2
    prod = poly_mul(p, q)
    assert prod.degree == 3
    assert dict(prod.terms) == {((1, 2), (2, 1)): 2}
    diff = poly_add(p, poly_scale(p, -1))
    assert diff.is_zero


def _reference_mul(p, q):
    """Tuple-key product of two term dicts."""
    acc = {}
    for ka, va in p.terms.items():
        for kb, vb in q.terms.items():
            exps = dict(ka)
            for v, e in kb:
                exps[v] = exps.get(v, 0) + e
            key = tuple(sorted(exps.items()))
            acc[key] = acc.get(key, 0) + va * vb
    return {key: c for key, c in acc.items() if c}


def _poly_of_degree(d):
    """Terms up to degree d in 3 variables, top and bottom fields at full degree."""
    terms = {(): 1}
    if d >= 1:
        terms.update({((1, d),): 2, ((3, d),): -1})
    if d >= 2:
        terms[((1, 1), (2, d - 1))] = Fraction(1, 2)
        terms[((2, 1), (3, 1))] = 3
    return TruncatedPoly(3, d, terms)


@pytest.mark.parametrize("bound", [1, 2, 3, 4, 7, 8, 15, 16])
def test_poly_mul_matches_reference_at_field_boundaries(bound):
    # exponents reach the product's bound, whose bit length sets the field width
    for d1 in range(bound + 1):
        p, q = _poly_of_degree(d1), _poly_of_degree(bound - d1)
        prod = poly_mul(p, q)
        assert dict(prod.terms) == _reference_mul(p, q)
        assert ((3, bound),) in prod.terms and prod.degree == bound


def test_poly_mismatched_nvars():
    with pytest.raises(ValueError):
        poly_add(TruncatedPoly(1, 1), TruncatedPoly(2, 1))


def test_embed():
    p = expand(M(1), 2, 1)
    shifted = embed(p, 4, 2)
    assert dict(shifted.terms) == {((3, 1),): 1, ((4, 1),): 1}
    with pytest.raises(ValueError):
        embed(p, 3, 2)
    with pytest.raises(ValueError, match="offset must be nonnegative, got -1"):
        embed(p, 4, -1)


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


def test_format_poly_signs_and_constants():
    x1, x2 = ((1, 1),), ((2, 1),)
    assert format_poly(TruncatedPoly(2, 1, {(): 1, x1: 1})) == "1 + x1"
    assert format_poly(TruncatedPoly(2, 1, {(): -1, x1: -1})) == "-1 - x1"
    assert format_poly(TruncatedPoly(2, 1, {x1: 2, x2: -1})) == "2*x1 - x2"
    assert format_poly(TruncatedPoly(2, 1, {x2: Fraction(-1), x1: Fraction(1)})) == "x1 - x2"
    assert format_poly(TruncatedPoly(2, 1, {(): Fraction(3, 2), x2: -3})) == "3/2 - 3*x2"
    assert format_poly(TruncatedPoly(2, 1, {(): Fraction(-1, 3), x1: 1})) == "-1/3 + x1"


def test_sorted_terms_is_graded_lex_on_dense_exponents():
    """The sparse sort key orders terms as their dense exponent vectors do:
    by degree, then by exponent of x1 descending, then of x2, and so on."""
    rng = random.Random(3)
    nvars, degree = 5, 4
    for _ in range(300):
        terms = {}
        for _ in range(rng.randint(1, 12)):
            chosen = sorted(rng.sample(range(1, nvars + 1), rng.randint(0, 3)))
            key = tuple((v, rng.randint(1, 2)) for v in chosen)
            if sum(e for _, e in key) <= degree:
                terms[key] = 1
        poly = TruncatedPoly(nvars, degree, terms)

        def dense(key):
            exps = [0] * nvars
            for v, e in key:
                exps[v - 1] = e
            return (sum(exps), [-e for e in exps])

        assert [k for k, _ in poly.sorted_terms()] == sorted(terms, key=dense)


def test_sorted_terms_with_a_huge_variable_count():
    """Sorting and printing cost nothing per variable that no term uses."""
    far = 10**12
    p = TruncatedPoly(far, 3, {((1, 1), (far, 1)): 1, ((far, 3),): -2, ((2, 1),): 1})
    assert format_poly(p) == f"x2 + x1*x{far} - 2*x{far}^3"
    assert p.to_json_dict()["terms"][1]["exps"] == [[1, 1], [far, 1]]


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
