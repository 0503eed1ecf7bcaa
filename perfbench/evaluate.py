"""Independent checks of qsym outputs: defining series evaluated at a point.

Every quasisymmetric function of degree <= d is determined by its values in
d variables, so two elements are equal iff they agree as polynomials in d
variables.  This module evaluates basis elements straight from their
defining series (sums over weakly or strictly increasing index sequences)
at a random point modulo the prime 2^61 - 1, which is the Schwartz-Zippel
test: a wrong result passes with probability at most degree / 2^61.  None
of this uses qsym's conversion, product or expansion rules, so it can
certify their outputs.

Antipode values use the classical closed forms (Ehrenborg; Malvenuto-
Reutenauer; Stembridge for the peak functions):
S(M_a) is (-1)^len(a) times the weak-increasing series of reversed a,
S(L_a) = (-1)^|a| L_complement(a), S(eta_a) = (-1)^len(a) eta_reverse(a)
and S(K_a) = (-1)^|a| K_reverse(a).
"""

from __future__ import annotations

from fractions import Fraction

PRIME = (1 << 61) - 1


def modp(value) -> int:
    """An exact rational (int, Fraction or "p/q" string) reduced mod PRIME."""
    value = Fraction(value)
    return value.numerator % PRIME * pow(value.denominator, PRIME - 2, PRIME) % PRIME


def random_point(rng, k: int) -> list[int]:
    return [rng.randrange(2, PRIME - 1) for _ in range(k)]


def _descents(comp) -> set[int]:
    out, total = set(), 0
    for part in comp[:-1]:
        total += part
        out.add(total)
    return out


def _peaks(odd_comp) -> set[int]:
    """Peak positions of an odd composition (parts 2i+1 -> i twos then a one)."""
    out, total = set(), 0
    for part in odd_comp:
        for _ in range(part // 2):
            total += 2
            out.add(total)
        total += 1
    return out


def _monomial_chain(exps, xs, strict: bool, first: int = 1, step: int = 1) -> int:
    """Sum over index sequences i_1 <(=) i_2 <(=) ... of prod x_(i_j)^exps[j].

    ``first`` weights the first index and ``step`` every strict increase;
    equal consecutive indices (allowed when not ``strict``) weigh 1.
    """
    if not exps:
        return 1
    k = len(xs)
    vals = [first * pow(x, exps[0], PRIME) % PRIME for x in xs]
    for e in exps[1:]:
        new = [0] * k
        below = 0
        for i, x in enumerate(xs):
            carry = step * below
            if not strict:
                carry += vals[i]
            new[i] = carry % PRIME * pow(x, e, PRIME) % PRIME
            below += vals[i]
        vals = new
    return sum(vals) % PRIME


def _letters(n: int, strict_steps: set[int], xs) -> int:
    """L-type series: n letters weakly increasing, strictly at ``strict_steps``."""
    if n == 0:
        return 1
    k = len(xs)
    vals = list(xs)
    for step in range(1, n):
        new = [0] * k
        below = 0
        for i, x in enumerate(xs):
            carry = below if step in strict_steps else below + vals[i]
            new[i] = carry % PRIME * x % PRIME
            below += vals[i]
        vals = new
    return sum(vals) % PRIME


def _peak_series(comp, xs) -> int:
    """K_a: weakly increasing letters, weight 2^#distinct, no triple tie at a peak."""
    n = sum(comp)
    if n == 0:
        return 1
    peaks = _peaks(comp)
    k = len(xs)
    fresh = [2 * x % PRIME for x in xs]  # last step strict (or first letter)
    tied = [0] * k  # last step an equality
    for step in range(1, n):
        new_fresh, new_tied = [0] * k, [0] * k
        below = 0
        for i, x in enumerate(xs):
            new_fresh[i] = 2 * below % PRIME * x % PRIME
            same = fresh[i] if step in peaks else fresh[i] + tied[i]
            new_tied[i] = same % PRIME * x % PRIME
            below += fresh[i] + tied[i]
        fresh, tied = new_fresh, new_tied
    return (sum(fresh) + sum(tied)) % PRIME


def basis_value(basis: str, comp, xs) -> int:
    """One basis element evaluated at the point xs."""
    comp = tuple(comp)
    if basis == "M":
        return _monomial_chain(comp, xs, strict=True)
    if basis == "eta":
        return _monomial_chain(comp, xs, strict=False, first=2, step=2)
    if basis == "L":
        return _letters(sum(comp), _descents(comp), xs)
    if basis == "K":
        return _peak_series(comp, xs)
    raise ValueError(f"unknown basis {basis!r}")


def _complement(comp):
    """Composition whose descent set is [n-1] minus the descents of the reversal."""
    n = sum(comp)
    rev = _descents(tuple(reversed(comp)))
    cuts = [i for i in range(1, n) if i not in rev]
    bounds = [0] + cuts + [n]
    return tuple(b - a for a, b in zip(bounds, bounds[1:]))


def antipode_value(basis: str, comp, xs) -> int:
    """S(basis_comp) evaluated at xs, from the closed forms in the module doc."""
    comp = tuple(comp)
    rev = tuple(reversed(comp))
    if basis == "M":
        value = _monomial_chain(rev, xs, strict=False)
        sign = len(comp)
    elif basis == "eta":
        value = basis_value("eta", rev, xs)
        sign = len(comp)
    elif basis == "L":
        value = basis_value("L", _complement(comp), xs) if comp else 1
        sign = sum(comp)
    elif basis == "K":
        value = basis_value("K", rev, xs)
        sign = sum(comp)
    else:
        raise ValueError(f"unknown basis {basis!r}")
    return value if sign % 2 == 0 else (-value) % PRIME


def element_value(basis: str, terms, xs, fn=basis_value) -> int:
    """Linear extension over (composition, coefficient) pairs."""
    return sum(modp(c) * fn(basis, comp, xs) for comp, c in terms) % PRIME


def tensor_value(bases, terms, xs, ys) -> int:
    """sum of c * left(xs) * right(ys) over ((left, right), c) pairs."""
    lb, rb = bases
    total = 0
    for (cl, cr), c in terms:
        total += modp(c) * basis_value(lb, cl, xs) % PRIME * basis_value(rb, cr, ys)
    return total % PRIME


def poly_value(terms, xs) -> int:
    """sum of c * prod x_v^e over (((v, e), ...), c) pairs, variables 1-based."""
    total = 0
    for mono, c in terms:
        value = modp(c)
        for v, e in mono:
            value = value * pow(xs[v - 1], e, PRIME) % PRIME
        total += value
    return total % PRIME


# ---------------------------------------------------------------------------
# enriched P-partitions


def _signed_key(z: int):
    return (abs(z), 0 if z < 0 else 1)


def chain_value(labels, weights, alphabet, xs) -> int:
    """Enriched partitions of the chain labels[0] < labels[1] < ... at xs.

    Consecutive values increase in the order -1 < 1 < -2 < 2 < ..., or tie
    with a positive value when the labels increase and a negative value when
    they decrease; those local conditions imply the transitive ones.
    ``weights[label - 1]`` is the exponent a vertex puts on x_|value|.
    """
    zs = sorted(set(alphabet), key=_signed_key)
    if not labels:
        return 1
    factor = [[pow(xs[abs(z) - 1], w, PRIME) for z in zs] for w in range(max(weights) + 1)]
    first = weights[labels[0] - 1]
    vals = list(factor[first])
    for prev, cur in zip(labels, labels[1:]):
        tie_positive = prev < cur
        row = factor[weights[cur - 1]]
        new = [0] * len(zs)
        below = 0
        for i, z in enumerate(zs):
            carry = below + vals[i] if (z > 0) == tie_positive else below
            new[i] = carry % PRIME * row[i] % PRIME
            below += vals[i]
        vals = new
    return sum(vals) % PRIME


def linear_extensions(n: int, relations):
    """All orders of 1..n compatible with the (i, j) meaning i < j relations."""
    preds = {v: set() for v in range(1, n + 1)}
    for i, j in relations:
        preds[j].add(i)
    out = []

    def grow(prefix, left):
        if not left:
            out.append(tuple(prefix))
            return
        for v in sorted(left):
            if not preds[v] & left:
                prefix.append(v)
                grow(prefix, left - {v})
                prefix.pop()

    grow([], frozenset(range(1, n + 1)))
    return out


def poset_value(n: int, relations, weights, alphabet, xs) -> int:
    """Generating function of a labelled weighted poset at xs.

    Stembridge's fundamental lemma: the enriched P-partitions split
    disjointly over the linear extensions, each contributing its chain.
    """
    return sum(
        chain_value(ext, weights, alphabet, xs) for ext in linear_extensions(n, relations)
    ) % PRIME
