"""Exact truncated polynomial expansions in variables x_1..x_N.

This is the ground truth the symbolic layer is certified against: every
basis element has a defining series.  A quasisymmetric function is fixed
by its coefficients on the monomials x_1^b_1 ... x_k^b_k, one for every
composition b, so ``certify_equal`` compares those coefficients, read
straight from each element's defining series (the weakly increasing index
tuples whose value set is exactly {1..k}).  ``expand`` stays the full
expansion in N variables.

Monomials are sparse tuples of (variable, exponent) pairs with variables
ascending; coefficients are exact (int or Fraction, interchangeable).
Inside the product kernels a monomial is packed into one int, a fixed-width
field per variable (Kronecker substitution), so multiplying monomials is
one int addition; results are decoded back to tuples.
Products that would create monomials beyond the degree bound drop them
and set the ``truncated`` flag; identities are only certified on
untruncated polynomials.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from functools import lru_cache
from types import MappingProxyType
from typing import Iterable, Iterator, Mapping

from .combinatorics import descent_set, peak_set_of_composition
from .core import QSymElement, _bump, format_rational

Monomial = tuple[tuple[int, int], ...]


def _mono_degree(key: Monomial) -> int:
    return sum(e for _, e in key)


class TruncatedPoly:
    """A polynomial in x_1..x_nvars with all terms of total degree <= degree.

    Immutable: ``terms`` is a read-only view, so a shared (cached) result
    cannot be changed through a caller's reference.
    """

    __slots__ = ("nvars", "degree", "terms", "truncated")

    def __init__(self, nvars: int, degree: int, terms: Mapping | Iterable = (), truncated: bool = False):
        if nvars < 0 or degree < 0:
            raise ValueError("nvars and degree must be nonnegative")
        items = terms.items() if isinstance(terms, Mapping) else terms
        acc: dict[Monomial, Fraction | int] = {}
        for key, coeff in items:
            key = tuple((int(v), int(e)) for v, e in key)
            if any(e < 1 for _, e in key):
                raise ValueError(f"exponents must be positive in {key!r}")
            if any(not 1 <= v <= nvars for v, _ in key):
                raise ValueError(f"variable out of range in {key!r} for nvars={nvars}")
            if any(a >= b for (a, _), (b, _) in zip(key, key[1:])):
                raise ValueError(f"variables must be strictly ascending in {key!r}")
            if _mono_degree(key) > degree:
                raise ValueError(f"monomial {key!r} exceeds the degree bound {degree}")
            _bump(acc, key, coeff)
        object.__setattr__(self, "nvars", nvars)
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "terms", MappingProxyType(acc))
        object.__setattr__(self, "truncated", truncated)

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
        """Terms in graded lexicographic order (by degree, then x1 > x2 > ...)."""
        return sorted(
            self.terms.items(),
            key=lambda kv: (_mono_degree(kv[0]), _dense_negated(kv[0], self.nvars)),
        )

    def __repr__(self):
        if not self.terms:
            return "TruncatedPoly(0)"
        return f"TruncatedPoly({format_poly(self)})"

    def to_json_dict(self) -> dict:
        return {
            "nvars": self.nvars,
            "degree": self.degree,
            "terms": [
                {"exps": [[v, e] for v, e in key], "coeff": format_rational(Fraction(c))}
                for key, c in self.sorted_terms()
            ],
        }


def _dense_negated(key: Monomial, nvars: int) -> tuple:
    dense = [0] * nvars
    for v, e in key:
        dense[v - 1] = -e
    return tuple(dense)


def _raw_poly(nvars: int, degree: int, acc: dict, truncated: bool = False) -> TruncatedPoly:
    poly = TruncatedPoly.__new__(TruncatedPoly)
    object.__setattr__(poly, "nvars", nvars)
    object.__setattr__(poly, "degree", degree)
    object.__setattr__(poly, "terms", MappingProxyType(acc))
    object.__setattr__(poly, "truncated", truncated)
    return poly


def format_poly(p: TruncatedPoly) -> str:
    """Human-readable form, graded-lex term order: ``x1^2*x2 + 2*x2^3``."""
    if not p.terms:
        return "0"
    parts = []
    for key, coeff in p.sorted_terms():
        mono = "*".join(f"x{v}" if e == 1 else f"x{v}^{e}" for v, e in key)
        coeff = Fraction(coeff)
        if not key:
            text = format_rational(coeff)
        elif coeff == 1:
            text = mono
        elif coeff == -1:
            text = f"-{mono}"
        else:
            text = f"{format_rational(coeff)}*{mono}"
        parts.append(text)
    out = " + ".join(parts).replace("+ -", "- ")
    return out


# ---------------------------------------------------------------------------
# arithmetic


def poly_add(p: TruncatedPoly, q: TruncatedPoly) -> TruncatedPoly:
    if p.nvars != q.nvars:
        raise ValueError(f"variable count mismatch: {p.nvars} vs {q.nvars}")
    trunc_bounds = [x.degree for x in (p, q) if x.truncated]
    if trunc_bounds:
        # sums are only trustworthy up to the tightest truncated bound
        bound = min(trunc_bounds)
        flagged = True
    else:
        bound = max(p.degree, q.degree)
        flagged = False
    acc = {key: c for key, c in p.terms.items() if _mono_degree(key) <= bound}
    for key, coeff in q.terms.items():
        if _mono_degree(key) <= bound:
            _bump(acc, key, coeff)
    return _raw_poly(p.nvars, bound, acc, flagged)


def poly_scale(p: TruncatedPoly, scalar) -> TruncatedPoly:
    if isinstance(scalar, Fraction) and scalar.denominator == 1:
        scalar = scalar.numerator
    if not scalar:
        return _raw_poly(p.nvars, p.degree, {}, p.truncated)
    return _raw_poly(
        p.nvars, p.degree, {k: v * scalar for k, v in p.terms.items()}, p.truncated
    )


def poly_sub(p: TruncatedPoly, q: TruncatedPoly) -> TruncatedPoly:
    return poly_add(p, poly_scale(q, -1))


def _pack(key: Monomial, width: int) -> int:
    """One int for a monomial: the exponent of x_v fills bits (v-1)*width on.

    With width at least the bit length of every exponent that can occur,
    no field carries into the next, so adding packed keys multiplies
    monomials (Kronecker substitution).
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


def poly_mul(p: TruncatedPoly, q: TruncatedPoly) -> TruncatedPoly:
    """Exact product of complete polynomials (bound grows to d1 + d2).

    If an operand is already truncated, cross terms above the tightest
    truncated bound are unknowable: they are dropped and the result stays
    flagged, so such polynomials can never certify an identity.
    """
    if p.nvars != q.nvars:
        raise ValueError(f"variable count mismatch: {p.nvars} vs {q.nvars}")
    trunc_bounds = [x.degree for x in (p, q) if x.truncated]
    if trunc_bounds:
        bound = min(trunc_bounds)
        flagged = True
    else:
        bound = p.degree + q.degree
        flagged = False
    width = _field_width(bound)
    # q's packed terms by degree, so each p term meets only the q terms
    # whose product stays within the bound; a term above the bound (of a
    # truncated operand) may pack with carries, but is never multiplied
    by_degree: dict[int, list] = {}
    for key, coeff in q.terms.items():
        by_degree.setdefault(_mono_degree(key), []).append((_pack(key, width), coeff))
    acc: dict[int, Fraction | int] = {}
    for ka, va in p.terms.items():
        a = _pack(ka, width)
        room = bound - _mono_degree(ka)
        for db, group in by_degree.items():
            if db <= room:
                for b, vb in group:
                    acc[a + b] = acc.get(a + b, 0) + va * vb
    terms = {_unpack(key, width): c for key, c in acc.items() if c}
    return _raw_poly(p.nvars, bound, terms, flagged)


def embed(p: TruncatedPoly, nvars: int, offset: int = 0) -> TruncatedPoly:
    """Reindex into a larger variable set, renaming x_i to x_(i+offset)."""
    if offset < 0 or p.nvars + offset > nvars:
        raise ValueError("embedded variables would fall outside the target range")
    acc = {
        tuple((v + offset, e) for v, e in key): coeff for key, coeff in p.terms.items()
    }
    return _raw_poly(nvars, p.degree, acc, p.truncated)


# ---------------------------------------------------------------------------
# defining series of the basis elements


@lru_cache(maxsize=4096)
def _expand_term(basis: str, comp: tuple, nvars: int) -> Mapping[Monomial, int]:
    """Expansion of one basis element; cached, so returned read-only."""
    acc: dict[Monomial, int] = {}
    variables = range(1, nvars + 1)
    if basis == "M":
        for idx in itertools.combinations(variables, len(comp)):
            acc[tuple(zip(idx, comp))] = 1
        return MappingProxyType(acc)
    parts = _series_parts(basis, comp)
    tuples = itertools.combinations_with_replacement(variables, len(parts))
    for t, weight in _series_terms(basis, comp, tuples):
        exps: dict[int, int] = {}
        for v, part in zip(t, parts):
            exps[v] = exps.get(v, 0) + part
        _bump(acc, tuple(sorted(exps.items())), weight)
    return MappingProxyType(acc)


@lru_cache(maxsize=4096)
def _m_coefficients(basis: str, comp: tuple) -> Mapping[tuple, int]:
    """Coefficients of one basis element on x_1^b_1 ... x_k^b_k, keyed by b.

    Read from the defining series over the weakly increasing index tuples
    whose value set is exactly {1..k}; cached, so returned read-only.
    """
    if basis == "M":
        return MappingProxyType({comp: 1})
    acc: dict[tuple, int] = {}
    parts = _series_parts(basis, comp)
    for t, weight in _series_terms(basis, comp, _onto_tuples(len(parts))):
        b = [0] * (t[-1] if t else 0)
        for v, part in zip(t, parts):
            b[v - 1] += part
        _bump(acc, tuple(b), weight)
    return MappingProxyType(acc)


def _series_parts(basis: str, comp: tuple) -> tuple:
    """The exponent each index of an L, K or eta series tuple carries."""
    return comp if basis == "eta" else (1,) * sum(comp)


def _series_terms(basis: str, comp: tuple, tuples: Iterable[tuple]) -> Iterator[tuple]:
    """(t, weight) for the weakly increasing index tuples t in the defining
    series of one L, K or eta element:

    L:   strict ascent at every descent of comp, weight 1;
    K:   i_(j-1) < i_(j+1) at every peak j of comp, weight 2^#distinct;
    eta: no condition (one index per part), weight 2^#distinct.
    """
    if basis == "L":
        descents = descent_set(comp)
        return ((t, 1) for t in tuples if all(t[j - 1] < t[j] for j in descents))
    if basis == "K":
        peaks = peak_set_of_composition(comp)
        tuples = (t for t in tuples if all(t[j - 2] < t[j] for j in peaks))
    return ((t, 1 << len(set(t))) for t in tuples)


def _onto_tuples(length: int) -> Iterator[tuple]:
    """The weakly increasing tuples of a given length onto some {1..k}:
    they start at 1, and each later entry repeats the last or adds one."""
    if not length:
        return iter([()])
    steps = itertools.product((0, 1), repeat=length - 1)
    return (tuple(itertools.accumulate(s, initial=1)) for s in steps)


def _int_sum(a: QSymElement, common: int, table, *args) -> dict:
    """Sum of the tables of a's terms, each scaled by its coefficient times
    common (a multiple of every denominator), so the sum runs on ints; the
    keys that cancel are dropped once, at the end."""
    acc: dict = {}
    for comp, coeff in a.terms.items():
        scaled = coeff.numerator * (common // coeff.denominator)
        for key, value in table(a.basis, comp, *args).items():
            acc[key] = acc.get(key, 0) + scaled * value
    return {key: value for key, value in acc.items() if value}


def expand(a: QSymElement, nvars: int, degree: int | None = None) -> TruncatedPoly:
    """Expand an element in nvars variables; complete, never silently truncated.

    ``degree`` defaults to the element's degree and may not be below it.
    """
    if nvars < 0:
        raise ValueError(f"nvars must be nonnegative, got {nvars}")
    if degree is None:
        degree = a.degree
    if degree < a.degree:
        raise ValueError(
            f"degree bound {degree} below element degree {a.degree}; "
            "expanding would silently truncate"
        )
    common = math.lcm(*(coeff.denominator for coeff in a.terms.values()))
    acc = _int_sum(a, common, _expand_term, nvars)
    if common != 1:
        acc = {key: Fraction(v, common) for key, v in acc.items()}
    return _raw_poly(nvars, degree, acc)


def certify_equal(a: QSymElement, b: QSymElement) -> bool:
    """Ground-truth equality: compare the coefficients on x_1^b_1 ... x_k^b_k.

    Sound for quasisymmetric functions, which these monomial coefficients
    (one per composition b, of every degree) determine.  Each element's
    coefficients come from its basis elements' defining series, never from
    a basis conversion; both sides are scaled by one common denominator
    and summed in ints.
    """
    common = math.lcm(*(c.denominator for x in (a, b) for c in x.terms.values()))
    return _int_sum(a, common, _m_coefficients) == _int_sum(b, common, _m_coefficients)
