"""Exact truncated polynomial expansions in variables x_1..x_N.

This is the ground truth the symbolic layer is certified against: every
basis element has a defining series, and two quasisymmetric functions of
degree <= d are equal iff their expansions in d variables agree (the
monomials with at most d distinct variables stay linearly independent at
N = d).

Monomials are sparse tuples of (variable, exponent) pairs with variables
ascending; coefficients are exact (int or Fraction, interchangeable).
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
from typing import Iterable, Mapping

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


def _mono_mul(a: Monomial, b: Monomial) -> Monomial:
    if not a:
        return b
    if not b:
        return a
    exps: dict[int, int] = dict(a)
    for v, e in b:
        exps[v] = exps.get(v, 0) + e
    return tuple(sorted(exps.items()))


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
    acc: dict[Monomial, Fraction | int] = {}
    for ka, va in p.terms.items():
        da = _mono_degree(ka)
        for kb, vb in q.terms.items():
            if da + _mono_degree(kb) > bound:
                continue
            _bump(acc, _mono_mul(ka, kb), va * vb)
    return _raw_poly(p.nvars, bound, acc, flagged)


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


@lru_cache(maxsize=None)
def _expand_term(basis: str, comp: tuple, nvars: int) -> Mapping[Monomial, int]:
    """Expansion of one basis element; cached, so returned read-only."""
    acc: dict[Monomial, int] = {}
    variables = range(1, nvars + 1)
    if basis == "M":
        for idx in itertools.combinations(variables, len(comp)):
            acc[tuple(zip(idx, comp))] = 1
    elif basis == "L":
        n = sum(comp)
        descents = descent_set(comp)
        for t in itertools.combinations_with_replacement(variables, n):
            if all(t[j - 1] < t[j] for j in descents):
                _bump(acc, _mono_of_tuple(t), 1)
    elif basis == "K":
        n = sum(comp)
        peaks = peak_set_of_composition(comp)
        for t in itertools.combinations_with_replacement(variables, n):
            if all(t[j - 2] < t[j] for j in peaks):
                _bump(acc, _mono_of_tuple(t), 1 << len(set(t)))
    else:  # eta
        for t in itertools.combinations_with_replacement(variables, len(comp)):
            exps: dict[int, int] = {}
            for v, part in zip(t, comp):
                exps[v] = exps.get(v, 0) + part
            _bump(acc, tuple(sorted(exps.items())), 1 << len(set(t)))
    return MappingProxyType(acc)


def _mono_of_tuple(t: tuple) -> Monomial:
    exps: dict[int, int] = {}
    for v in t:
        exps[v] = exps.get(v, 0) + 1
    return tuple(sorted(exps.items()))


def expand(a: QSymElement, nvars: int, degree: int | None = None) -> TruncatedPoly:
    """Expand an element in nvars variables; complete, never silently truncated.

    ``degree`` defaults to the element's degree and may not be below it.
    """
    if degree is None:
        degree = a.degree
    if degree < a.degree:
        raise ValueError(
            f"degree bound {degree} below element degree {a.degree}; "
            "expanding would silently truncate"
        )
    # Clear denominators once, so the sum runs on ints.
    common = math.lcm(*(coeff.denominator for coeff in a.terms.values()))
    acc: dict[Monomial, int] = {}
    for comp, coeff in a.terms.items():
        scaled = coeff.numerator * (common // coeff.denominator)
        for key, value in _expand_term(a.basis, comp, nvars).items():
            _bump(acc, key, scaled * value)
    if common != 1:
        acc = {key: Fraction(v, common) for key, v in acc.items()}
    return _raw_poly(nvars, degree, acc)


def certify_equal(a: QSymElement, b: QSymElement) -> bool:
    """Ground-truth equality: expand both in max(deg) variables and compare.

    Sound for quasisymmetric functions: degree-d elements agree iff their
    expansions in d variables agree.
    """
    d = max(a.degree, b.degree)
    return expand(a, d, d) == expand(b, d, d)
