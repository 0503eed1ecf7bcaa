"""Exact polynomial expansions in variables x_1..x_N.

This is the ground truth the symbolic layer is certified against: every
basis element has a defining series.  A quasisymmetric function is fixed
by its coefficients on the monomials x_1^b_1 ... x_k^b_k, one for every
composition b, so ``certify_equal`` compares those coefficients, keyed by
the code of b (bit s-1 for each partial sum s) and read straight from each
element's defining series: the weakly increasing index tuples whose value
set is exactly {1..k}, each read as the mask of the places where it steps
up.  ``expand`` builds the full expansion in N variables from the same
coefficients c_b: every monomial x_i1^b1 ... x_ik^bk with i1 < ... < ik
lies in exactly one M_b, so the expansion is the disjoint union of c_b
times the monomials of M_b, and needs no sums.  Both are sized before
they enumerate, and refused past a fixed budget.

Monomials are sparse tuples of (variable, exponent) pairs with variables
ascending; coefficients are exact (int or Fraction, interchangeable).
Inside the product kernels a monomial is packed into one int, a fixed-width
field per variable (Kronecker substitution), so multiplying monomials is
one int addition; results are decoded back to tuples.
Arithmetic is complete: a sum's degree bound is the larger of its
operands' bounds and a product's is their sum, so no term is ever dropped.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Iterable, Iterator, Mapping
from fractions import Fraction
from functools import lru_cache
from types import MappingProxyType

from .combinatorics import _check_count, _composition_of_code, _peaks_of_code
from .core import QSymElement, _add_into, _exact, _nonzero, _over_budget, _signed_sum
from .core import format_rational

Monomial = tuple[tuple[int, int], ...]


def _mono_degree(key: Monomial) -> int:
    return sum(e for _, e in key)


class TruncatedPoly:
    """A polynomial in x_1..x_nvars with all terms of total degree <= degree.

    Immutable: ``terms`` is a read-only view, so a shared (cached) result
    cannot be changed through a caller's reference.
    """

    __slots__ = ("nvars", "degree", "terms")

    def __init__(self, nvars: int, degree: int, terms: Mapping | Iterable = ()):
        _check_count("nvars", nvars)
        _check_count("degree", degree)
        items = terms.items() if isinstance(terms, Mapping) else terms
        acc: dict[Monomial, Fraction | int] = {}
        for key, coeff in items:
            key = tuple((v, e) for v, e in key)
            if not all(type(x) is int for pair in key for x in pair):
                raise ValueError(f"variables and exponents must be ints in {key!r}")
            if any(e < 1 for _, e in key):
                raise ValueError(f"exponents must be positive in {key!r}")
            if any(not 1 <= v <= nvars for v, _ in key):
                raise ValueError(f"variable out of range in {key!r} for nvars={nvars}")
            if any(a >= b for (a, _), (b, _) in zip(key, key[1:])):
                raise ValueError(f"variables must be strictly ascending in {key!r}")
            if _mono_degree(key) > degree:
                raise ValueError(f"monomial {key!r} exceeds the degree bound {degree}")
            acc[key] = acc.get(key, 0) + _exact(coeff)
        object.__setattr__(self, "nvars", nvars)
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "terms", MappingProxyType(_nonzero(acc)))

    def __setattr__(self, name, value):
        raise AttributeError("TruncatedPoly is immutable")

    def __eq__(self, other):
        """Same variable count and same terms; bound metadata is ignored."""
        if not isinstance(other, TruncatedPoly):
            return NotImplemented
        return self.nvars == other.nvars and self.terms == other.terms

    def __hash__(self):
        return hash((self.nvars, frozenset(self.terms.items())))

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def coefficient(self, key: Iterable) -> Fraction:
        return Fraction(self.terms.get(tuple(tuple(p) for p in key), 0))

    def sorted_terms(self) -> list:
        """Terms in graded lexicographic order (by degree, then x1 > x2 > ...),
        each monomial keyed once by ``_grlex_key``."""
        terms = self.terms
        return [(key, terms[key]) for key in sorted(terms, key=_grlex_key)]

    def __repr__(self):
        if not self.terms:
            return "TruncatedPoly(0)"
        return f"TruncatedPoly({format_poly(self)})"

    def to_json_dict(self) -> dict:
        return {
            "nvars": self.nvars,
            "degree": self.degree,
            "terms": [
                {"exps": [[v, e] for v, e in key], "coeff": format_rational(c)}
                for key, c in self.sorted_terms()
            ],
        }


@lru_cache(maxsize=4096)
def _grlex_key(key: Monomial) -> tuple:
    """The graded lexicographic sort key of a monomial: its degree, then its
    (variable, -exponent) pairs.  Within one degree no sparse key is a
    prefix of another, so comparing the pairs orders the keys as their
    dense exponent vectors would, without building one per term.  Memoized,
    as ``_pack`` is: the polynomials a session writes share their monomials.
    """
    return _mono_degree(key), tuple((v, -e) for v, e in key)


def _raw_poly(nvars: int, degree: int, acc: dict) -> TruncatedPoly:
    poly = TruncatedPoly.__new__(TruncatedPoly)
    object.__setattr__(poly, "nvars", nvars)
    object.__setattr__(poly, "degree", degree)
    object.__setattr__(poly, "terms", MappingProxyType(acc))
    return poly


def format_poly(p: TruncatedPoly) -> str:
    """Human-readable form, graded-lex term order: ``x1^2*x2 + 2*x2^3``."""
    return _signed_sum(
        p.sorted_terms(),
        lambda key: "*".join(f"x{v}" if e == 1 else f"x{v}^{e}" for v, e in key),
        "0",
    )


# ---------------------------------------------------------------------------
# arithmetic


def _same_nvars(p: TruncatedPoly, q: TruncatedPoly) -> None:
    if p.nvars != q.nvars:
        raise ValueError(f"variable count mismatch: {p.nvars} vs {q.nvars}")


def poly_add(p: TruncatedPoly, q: TruncatedPoly) -> TruncatedPoly:
    _same_nvars(p, q)
    acc = dict(p.terms)
    _add_into(acc, q.terms)
    return _raw_poly(p.nvars, max(p.degree, q.degree), _nonzero(acc))


def poly_scale(p: TruncatedPoly, scalar) -> TruncatedPoly:
    scalar = _exact(scalar)
    if isinstance(scalar, Fraction) and scalar.denominator == 1:
        scalar = scalar.numerator
    if not scalar:
        return _raw_poly(p.nvars, p.degree, {})
    return _raw_poly(p.nvars, p.degree, {k: v * scalar for k, v in p.terms.items()})


@lru_cache(maxsize=4096)
def _pack(key: Monomial, width: int) -> int:
    """One int for a monomial: the exponent of x_v fills bits (v-1)*width on.

    With width at least the bit length of every exponent that can occur,
    no field carries into the next, so adding packed keys multiplies
    monomials (Kronecker substitution).  Memoized, as ``_unpack`` is:
    products of cached results pack the same keys again and again.
    """
    return sum(e << ((v - 1) * width) for v, e in key)


@lru_cache(maxsize=4096)
def _unpack(packed: int, width: int) -> Monomial:
    """The monomial of a packed key, variables ascending.

    Memoized: results in few variables decode the same keys again and again.
    """
    mask = (1 << width) - 1
    out = []
    var = 1
    while packed:
        if packed & mask:
            out.append((var, packed & mask))
        packed >>= width
        var += 1
    return tuple(out)


def _field_width(bound: int) -> int:
    """Bits per variable when no exponent exceeds bound."""
    return max(bound, 1).bit_length()


def _packed_mul(a: dict, b: dict) -> dict:
    """The product of two polynomials packed at one width, as {packed: coeff}.

    Adding packed keys multiplies monomials; terms that cancel stay, as 0.
    """
    acc: dict[int, Fraction | int] = {}
    for ka, va in a.items():
        for kb, vb in b.items():
            acc[ka + kb] = acc.get(ka + kb, 0) + va * vb
    return acc


def poly_mul(p: TruncatedPoly, q: TruncatedPoly) -> TruncatedPoly:
    """Exact product; its degree bound is the sum of the operands' bounds.

    >>> x1 = TruncatedPoly(2, 1, {((1, 1),): 1})
    >>> p = poly_mul(x1, TruncatedPoly(2, 2, {((1, 1), (2, 1)): 3}))
    >>> p, p.degree
    (TruncatedPoly(3*x1^2*x2), 3)
    """
    _same_nvars(p, q)
    bound = p.degree + q.degree
    width = _field_width(bound)
    a, b = ({_pack(key, width): c for key, c in x.terms.items()} for x in (p, q))
    acc = _packed_mul(a, b)
    return _raw_poly(p.nvars, bound, {_unpack(k, width): c for k, c in acc.items() if c})


def embed(p: TruncatedPoly, nvars: int, offset: int = 0) -> TruncatedPoly:
    """Reindex into a larger variable set, renaming x_i to x_(i+offset)."""
    _check_count("nvars", nvars)
    _check_count("offset", offset)
    if p.nvars + offset > nvars:
        raise ValueError("embedded variables would fall outside the target range")
    acc = {
        tuple((v + offset, e) for v, e in key): coeff for key, coeff in p.terms.items()
    }
    return _raw_poly(nvars, p.degree, acc)


# ---------------------------------------------------------------------------
# defining series of the basis elements


# Work budgets: each enumeration is sized before it starts and refused, by
# core._over_budget with its estimate, when it would exceed these.
_SERIES_BUDGET = 1 << 20  # index tuples in the defining series of one term
_MONOMIAL_BUDGET = 10**6  # monomials in one expansion


@lru_cache(maxsize=4096)
def _m_coefficients(basis: str, code: int) -> Mapping[int, int]:
    """Coefficients of one basis element on x_1^b_1 ... x_k^b_k, keyed by
    the code of b; the element's composition is given by its code too.

    Read from the defining series, whose weakly increasing index tuples onto
    {1..k} are each fixed by the set S of places where they step up: b's
    partial sums are those places (for eta, the partial sums of its parts
    there) and the top, so code(b) = S | top, with S a mask below the top.
    Writing D for the descent mask of the composition:

    L:   every S that contains D, weight 1;
    K:   every S that meets {j-1, j} at each peak j, weight 2^(1+|S|);
    eta: every S inside D, weight 2^(1+|S|).

    The series has 2^(len(parts)-1) index tuples, one index per unit (per
    part for eta), and is refused past _SERIES_BUDGET before any is read.
    Cached, so returned read-only.
    """
    if basis == "M" or not code:
        return MappingProxyType({code: 1})
    n = code.bit_length()
    tuples = 1 << (code.bit_count() if basis == "eta" else n) - 1
    if tuples > _SERIES_BUDGET:
        head = f"the series of {basis}{list(_composition_of_code(code))} needs"
        raise _over_budget(head, tuples, "index tuples", _SERIES_BUDGET)
    top = 1 << n - 1
    descents = code ^ top
    if basis == "L":
        return MappingProxyType(dict.fromkeys((code | s for s in _submasks(top - 1 ^ descents)), 1))
    if basis == "eta":
        masks = _submasks(descents)
    else:  # K: (S | S >> 1) has bit j-2 exactly when S meets {j-1, j}
        lows = _peaks_of_code(code) >> 1
        masks = (s for s in range(top) if (s | s >> 1) & lows == lows)
    return MappingProxyType({top | s: 2 << s.bit_count() for s in masks})


def _submasks(mask: int) -> Iterator[int]:
    """Every submask of mask, from mask itself down to 0."""
    sub = mask
    while sub:
        yield sub
        sub = sub - 1 & mask
    yield 0


@lru_cache(maxsize=1024)
def _m_monomials(code: int, variables: tuple) -> tuple[Monomial, ...]:
    """The monomials x_i1^b1 ... x_ik^bk of M_b, for b the composition with
    this code, over the ascending variables, i1 < ... < ik, in the order of
    itertools.combinations."""
    b = _composition_of_code(code)
    return tuple(tuple(zip(idx, b)) for idx in itertools.combinations(variables, len(b)))


def _int_sum(a: QSymElement, common: int) -> dict:
    """a's coefficients on x_1^b_1 ... x_k^b_k by the code of b, times common
    (a multiple of a's denominator), summed in ints from its terms'
    _m_coefficients.  Reads the code-keyed numerators, so no ``terms`` view
    is built and no composition decoded."""
    acc: dict = {}
    up = common // a._den
    for code, coeff in a._terms.items():
        _add_into(acc, _m_coefficients(a.basis, code), coeff * up)
    return _nonzero(acc)


def expand(a: QSymElement, nvars: int, degree: int | None = None) -> TruncatedPoly:
    """Expand an element in nvars variables; complete, never silently truncated.

    ``degree`` defaults to the element's degree and may not be below it.
    The expansion is the disjoint union of c_b * M_b over the compositions b
    with c_b != 0: every monomial lies in exactly one M_b, so each is written
    once, with no sums.  Refused past _MONOMIAL_BUDGET monomials, counted
    (C(nvars, len(b)) per b, len(b) the bit count of b's code) before any
    is built.
    """
    _check_count("nvars", nvars)
    if degree is None:
        degree = a.degree
    _check_count("degree", degree)
    if degree < a.degree:
        raise ValueError(
            f"degree bound {degree} below element degree {a.degree}; "
            "expanding would silently truncate"
        )
    common = a._den
    coeffs = _int_sum(a, common)
    size = sum(math.comb(nvars, code.bit_count()) for code in coeffs)
    if size > _MONOMIAL_BUDGET:
        head = f"expanding in {nvars} variables needs"
        raise _over_budget(head, size, "monomials", _MONOMIAL_BUDGET)
    if common != 1:
        coeffs = {code: Fraction(c, common) for code, c in coeffs.items()}
    variables = tuple(range(1, nvars + 1))
    acc = {mono: c for code, c in coeffs.items() for mono in _m_monomials(code, variables)}
    return _raw_poly(nvars, degree, acc)


def certify_equal(a: QSymElement, b: QSymElement) -> bool:
    """Ground-truth equality: compare the coefficients on x_1^b_1 ... x_k^b_k.

    Sound for quasisymmetric functions, which these monomial coefficients
    (one per composition b, of every degree) determine.  Each element's
    coefficients come from its basis elements' defining series, never from
    a basis conversion; both sides are scaled by one common denominator
    and summed in ints.
    """
    common = math.lcm(a._den, b._den)
    return _int_sum(a, common) == _int_sum(b, common)
