"""Labelled weighted posets and Z-enriched P-partitions.

Values live in the signed alphabet {..., -2, 2, -1, 1} ordered as
-1 < 1 < -2 < 2 < -3 < ...; a value is a nonzero int whose sign and
absolute value are the SignedValue's sign and magnitude.  An enriched
P-partition of a labelled poset assigns such a value to every vertex so
that along every relation i <_P j the values weakly increase, with ties
positive when the labels increase and negative when they decrease.

The generating function gamma sums x_|f(i)|^weight(i) over all such
assignments into a finite alphabet; with a weighted chain this produces,
at the right specializations, the monomial, fundamental, peak and
enriched monomial quasisymmetric functions.

On a chain the conditions between neighbours imply all the others, and
they read the labels only through whether each step goes up.  So a
chain's gamma depends only on that up-down pattern, the weights along
the chain and the alphabet, and it is cached by exactly that key.  It is
counted block by block: the magnitudes weakly increase along the chain
and cut it into blocks of equal magnitude, whose weights give the
monomial's exponents, so each monomial is written once.  Inside a block
the signs run -...-+..., a tie at -m needs a down-step and a tie at +m an
up-step, so the block takes m in 1 way (Z holds one sign of m and the
block never steps against it), 2 ways (Z holds both and the block has no
peak inside) or none.  The
enriched P-partitions of any poset split disjointly over its linear
extensions (Stembridge's fundamental lemma), so its gamma is the sum of
the chain functions of its extensions.  gamma counts their chain keys in
one pass over order ideals, level by level: each state (ideal, last
vertex, up-steps so far, weights so far) holds its number of extension
prefixes, and equal states merge.  Each distinct key's chain function is
then added once, times its count; a chain is the case with one key.

A poset stores its order once, as one closed predecessor bitmask per
vertex: the walks above read those masks, and relations and covers are
derived from them on demand.
"""

from __future__ import annotations

import itertools
import operator
from functools import lru_cache
from typing import Iterable, Iterator, Mapping, Sequence

from .combinatorics import (
    Composition,
    Permutation,
    check_composition,
    check_permutation,
    contract_set,
    coshuffles,
    peak_set_of_permutation,
    subsets,
)
from .core import QSymElement
from .expansion import TruncatedPoly, _check_count, _m_monomials, _raw_poly

SignedValue = int  # nonzero: -n is (-, n), +n is (+, n)

Assignment = tuple[SignedValue, ...]  # position i-1 holds the value of label i


def signed_order_key(value: SignedValue) -> tuple[int, int]:
    """Sort key realizing -1 < 1 < -2 < 2 < -3 < ..."""
    if value == 0:
        raise ValueError("0 is not a signed value")
    return (abs(value), 0 if value < 0 else 1)


def positive_alphabet(n: int) -> tuple[SignedValue, ...]:
    """{1, 2, ..., n}, already in signed order."""
    return tuple(range(1, n + 1))


def signed_alphabet(n: int) -> tuple[SignedValue, ...]:
    """{-1, 1, -2, 2, ..., -n, n} in signed order."""
    out: list[int] = []
    for i in range(1, n + 1):
        out.extend((-i, i))
    return tuple(out)


def _check_alphabet(alphabet: Iterable[SignedValue]) -> tuple[SignedValue, ...]:
    """The alphabet's distinct values in signed order.  Only tuples of plain
    ints are memoized: the memo compares keys by equality, under which True
    and 1.0 equal 1, so anything else is checked in full on every call."""
    if type(alphabet) is tuple and all(type(z) is int for z in alphabet):
        return _check_int_tuple(alphabet)
    return _sorted_alphabet(alphabet)


def _sorted_alphabet(alphabet: Iterable[SignedValue]) -> tuple[SignedValue, ...]:
    values = set()
    for z in alphabet:
        if not _is_int(z) or z == 0:
            raise ValueError(f"alphabet entries must be nonzero ints, got {z!r}")
        values.add(z)
    return tuple(sorted(values, key=signed_order_key))


_check_int_tuple = lru_cache(maxsize=256)(_sorted_alphabet)


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _bits(mask: int) -> list[int]:
    """The positions of the set bits of mask, lowest first."""
    return [i for i, bit in enumerate(reversed(bin(mask))) if bit == "1"]


class LabelledWeightedPoset:
    """A strict partial order on labels 1..n with a positive weight per vertex.

    The order is stored closed, as predecessor bitmasks: bit i of _preds[j]
    is set exactly when i <_P j, and _preds[0] is 0.  Warshall's algorithm
    closes it over the vertices with predecessors only (no other vertex gains
    or passes on any), so an antichain costs one pass over its labels and a
    chain n^2 int operations.  Construction rejects cycles; instances are
    immutable and hashable.
    """

    __slots__ = ("n", "weights", "_preds")

    def __init__(
        self,
        n: int,
        relations: Iterable[tuple[int, int]] = (),
        weights: Sequence[int] | None = None,
    ):
        if not _is_int(n) or n < 0:
            raise ValueError(f"n must be a nonnegative int, got {n!r}")
        if weights is None:
            weights = (1,) * n
        weights = tuple(weights)
        if len(weights) != n:
            raise ValueError(f"expected {n} weights, got {len(weights)}")
        if any(not _is_int(w) or w < 1 for w in weights):
            raise ValueError("weights must be positive integers")
        preds = [0] * (n + 1)
        for i, j in relations:
            if not (_is_int(i) and _is_int(j) and 1 <= i <= n and 1 <= j <= n):
                raise ValueError(f"relation ({i}, {j}) outside labels 1..{n}")
            if i == j:
                raise ValueError(f"relation ({i}, {j}) is reflexive")
            preds[j] |= 1 << i
        inner = [v for v in range(1, n + 1) if preds[v]]
        for k in inner:
            for j in inner:
                if preds[j] >> k & 1:
                    preds[j] |= preds[k]
        if any(preds[v] >> v & 1 for v in inner):
            raise ValueError("relations contain a cycle; not a partial order")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "_preds", tuple(preds))

    def __setattr__(self, name, value):
        raise AttributeError("LabelledWeightedPoset is immutable")

    def less(self, i: int, j: int) -> bool:
        return 0 < i <= self.n and 0 < j <= self.n and self._preds[j] >> i & 1 == 1

    def comparable(self, i: int, j: int) -> bool:
        return self.less(i, j) or self.less(j, i)

    @property
    def relations(self) -> frozenset:
        return frozenset((i, j) for j, mask in enumerate(self._preds) for i in _bits(mask))

    def weight(self, i: int) -> int:
        return self.weights[i - 1]

    def incomparable_pairs(self) -> list[tuple[int, int]]:
        return [
            (i, j)
            for i in range(1, self.n + 1)
            for j in range(i + 1, self.n + 1)
            if not self.comparable(i, j)
        ]

    def covers(self) -> list[tuple[int, int]]:
        """Covering relations: i < j with no k strictly between."""
        preds = self._preds
        out = []
        for j, mask in enumerate(preds):
            below = 0
            for i in _bits(mask):
                below |= preds[i]
            out.extend((i, j) for i in _bits(mask & ~below))
        return sorted(out)

    def with_relation(self, i: int, j: int) -> "LabelledWeightedPoset":
        if self.less(j, i):
            raise ValueError(f"adding {i} < {j} would contradict {j} < {i}")
        return LabelledWeightedPoset(self.n, self.covers() + [(i, j)], self.weights)

    def linear_extension(self) -> tuple[int, ...]:
        """Smallest-label-first topological order."""
        return next(self.linear_extensions())

    def linear_extensions(self) -> Iterator[tuple[int, ...]]:
        """Every linear extension, in lexicographic order of the label words:
        depth first, testing each label's predecessor bitmask."""
        n, preds = self.n, self._preds

        def rec(word: tuple, placed: int) -> Iterator[tuple[int, ...]]:
            if len(word) == n:
                yield word
            for v in range(1, n + 1):
                if not placed >> v & 1 and preds[v] & placed == preds[v]:
                    yield from rec(word + (v,), placed | 1 << v)

        return rec((), 0)

    def chain_order(self) -> tuple[int, ...] | None:
        """The labels along the chain when the order is total, else None.

        The order is total exactly when the predecessor counts are 0..n-1,
        each once; then the vertex with k predecessors sits at place k.
        """
        order = [0] * self.n
        for v in range(1, self.n + 1):
            order[self._preds[v].bit_count()] = v
        return None if 0 in order else tuple(order)

    def __eq__(self, other):
        if not isinstance(other, LabelledWeightedPoset):
            return NotImplemented
        return (self.weights, self._preds) == (other.weights, other._preds)

    def __hash__(self):
        return hash((self.weights, self._preds))

    def __repr__(self):
        return (
            f"LabelledWeightedPoset(n={self.n}, covers={self.covers()}, "
            f"weights={list(self.weights)})"
        )

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "covers": [list(c) for c in self.covers()],
            "weights": list(self.weights),
        }

    @classmethod
    def from_json_dict(cls, data: Mapping) -> "LabelledWeightedPoset":
        """Read ``to_json_dict``'s form; ValueError names a malformed or unknown field."""
        if not isinstance(data, Mapping):
            raise ValueError(f"a poset must be a JSON object, got {type(data).__name__}")
        for key in data:
            if key not in ("n", "covers", "weights"):
                raise ValueError(
                    f"unknown poset field {key!r}; expected 'n', 'covers' and 'weights'"
                )
        if "n" not in data:
            raise ValueError("poset field 'n' is missing")
        n = data["n"]
        if not _is_int(n):
            raise ValueError(f"poset field 'n' must be an integer, got {n!r}")
        covers = data.get("covers", [])
        if not isinstance(covers, (list, tuple)) or not all(
            isinstance(pair, (list, tuple)) and len(pair) == 2 and all(map(_is_int, pair))
            for pair in covers
        ):
            raise ValueError(
                f"poset field 'covers' must be a list of [i, j] integer pairs, got {covers!r}"
            )
        weights = data.get("weights")
        if weights is not None and not isinstance(weights, (list, tuple)):
            raise ValueError(f"poset field 'weights' must be a list, got {weights!r}")
        return cls(n, [tuple(pair) for pair in covers], weights)


def chain_poset(pi: Iterable[int]) -> LabelledWeightedPoset:
    """The total order pi_1 <_P pi_2 <_P ... <_P pi_n with unit weights."""
    word = check_permutation(pi)
    return LabelledWeightedPoset(len(word), zip(word, word[1:]))


def _check_weighted_word(
    pi: Iterable[int], alpha: Iterable[int]
) -> tuple[Permutation, Composition]:
    """The checked word and parts, one part per letter."""
    word = check_permutation(pi)
    parts = check_composition(alpha)
    if len(parts) != len(word):
        raise ValueError("need exactly one weight part per permutation letter")
    return word, parts


def weighted_chain(pi: Iterable[int], alpha: Iterable[int]) -> LabelledWeightedPoset:
    """The chain of pi with the vertex labelled pi_i weighted by alpha_i."""
    word, parts = _check_weighted_word(pi, alpha)
    weights = [0] * len(word)
    for label, w in zip(word, parts):
        weights[label - 1] = w
    return LabelledWeightedPoset(len(word), zip(word, word[1:]), weights)


def _respects(label_i: int, label_j: int, fi: SignedValue, fj: SignedValue) -> bool:
    """Condition along a relation i <_P j: increase, or an allowed tie."""
    if signed_order_key(fi) < signed_order_key(fj):
        return True
    if fi == fj:
        return fj > 0 if label_i < label_j else fj < 0
    return False


def is_enriched_partition(
    poset: LabelledWeightedPoset, values: Sequence[SignedValue]
) -> bool:
    """Check the enriched conditions for a full assignment (values[i-1] = f(i))."""
    if len(values) != poset.n:
        raise ValueError(f"expected {poset.n} values, got {len(values)}")
    for v in values:
        if not _is_int(v) or v == 0:
            raise ValueError(f"values must be nonzero ints, got {v!r}")
    return all(
        _respects(i, j, values[i - 1], values[j - 1]) for i, j in poset.relations
    )


def _assignments(poset: LabelledWeightedPoset, zs: tuple) -> Iterator[Assignment]:
    """Every enriched assignment into the checked alphabet zs.

    Depth-first along a linear extension, pruning a value as soon as it
    breaks a relation to an already-assigned vertex.
    """
    n, preds = poset.n, poset._preds
    order = poset.linear_extension()
    vals: list[SignedValue] = [0] * (n + 1)  # by label; entry 0 is unused

    def rec(k: int) -> Iterator[Assignment]:
        if k == n:
            yield tuple(vals[1:])
            return
        label = order[k]
        below = _bits(preds[label])
        for z in zs:
            if all(_respects(i, label, vals[i], z) for i in below):
                vals[label] = z
                yield from rec(k + 1)

    return rec(0)


_ASSIGNMENT_BUDGET = 10**6  # candidate assignments |Z|^n for enumerate_assignments


def enumerate_assignments(
    poset: LabelledWeightedPoset, alphabet: Iterable[SignedValue]
) -> list[Assignment]:
    """All enriched assignments into a finite alphabet, canonically ordered.

    Brute force with pruning along a linear extension; the output order is
    by signed order of the values at labels 1, 2, ....  Refused when the
    |Z|^n candidate assignments pass _ASSIGNMENT_BUDGET, before any is tried.
    """
    zs = _check_alphabet(alphabet)
    candidates = len(zs) ** poset.n
    if candidates > _ASSIGNMENT_BUDGET:
        raise ValueError(
            f"{len(zs)} values on {poset.n} vertices give {candidates} candidate "
            f"assignments, over the budget of {_ASSIGNMENT_BUDGET}"
        )
    out = list(_assignments(poset, zs))
    out.sort(key=lambda t: tuple(signed_order_key(v) for v in t))
    return out


# ---------------------------------------------------------------------------
# generating functions

# gamma counts the prefixes of linear extensions level by level; past this
# many on one level it refuses instead of running for minutes (an antichain
# of n has n! extensions).
_EXTENSION_LIMIT = 10**5


def gamma(
    poset: LabelledWeightedPoset,
    alphabet: Iterable[SignedValue],
    nvars: int | None = None,
) -> TruncatedPoly:
    """Sum of prod_i x_|f(i)|^weight(i) over all enriched assignments into Z.

    The result lives in x_1..x_nvars (default: the largest magnitude in Z)
    with degree bound equal to the total weight, by the one pass over order
    ideals that the module docstring describes.  Level k of it counts the
    extension prefixes of length k, no more than the poset's linear
    extensions, so it refuses as soon as a level counts past
    _EXTENSION_LIMIT: exactly when the poset has more extensions than that.
    """
    zs = _check_alphabet(alphabet)
    nvars = _check_nvars(zs, nvars)
    n, weights = poset.n, poset.weights
    preds = poset._preds
    level = {(0, 0, (), ()): 1}
    for _ in range(n):
        nxt: dict = {}
        total = 0
        for (ideal, last, ups, ws), count in level.items():
            for v in range(1, n + 1):
                if not ideal >> v & 1 and preds[v] & ideal == preds[v]:
                    total += count
                    if total > _EXTENSION_LIMIT:
                        raise ValueError(
                            f"the poset has more than {_EXTENSION_LIMIT} linear "
                            "extensions, the limit for gamma"
                        )
                    state = (
                        ideal | 1 << v,
                        v,
                        ups + (last < v,) if last else ups,
                        ws + (weights[v - 1],),
                    )
                    nxt[state] = nxt.get(state, 0) + count
        level = nxt
    keys: dict = {}
    for (_, _, ups, ws), count in level.items():
        keys[ups, ws] = keys.get((ups, ws), 0) + count
    acc: dict = {}
    for (ups, ws), count in keys.items():
        for mono, c in _gamma_chain(ups, ws, zs, nvars).terms.items():
            acc[mono] = acc.get(mono, 0) + count * c
    return _raw_poly(nvars, sum(weights), acc)


def _check_nvars(zs: tuple, nvars: int | None) -> int:
    """The variable count for a checked alphabet (default: its largest
    magnitude, the last one's, since signed order sorts by magnitude first)."""
    top = abs(zs[-1]) if zs else 0
    if nvars is None:
        return top
    _check_count("nvars", nvars)
    if top > nvars:
        raise ValueError(f"alphabet magnitude {top} exceeds the variable count {nvars}")
    return nvars


# Sign sets of one magnitude in an alphabet, as bits: only -m, only +m, both.
_MINUS, _PLUS, _BOTH = 1, 2, 4


def _blocks(ups: tuple, ws: tuple, start: int, kinds: int) -> Iterator[tuple[int, int, int]]:
    """(vertex after the block, block weight, the sign sets that cannot take
    the block) for each block of the chain that starts at vertex start, as
    long as some sign set in kinds can take it."""
    killed = b = 0
    for end in range(start, len(ws)):
        if end > start:
            if ups[end - 1]:
                killed |= _MINUS
            else:  # a down-step after an up-step is a peak
                killed |= _PLUS | (_BOTH if killed & _MINUS else 0)
            if not kinds & ~killed:
                return
        b += ws[end]
        yield end + 1, b, killed


@lru_cache(maxsize=4096)
def _gamma_chain(ups: tuple, ws: tuple, zs: tuple, nvars: int) -> TruncatedPoly:
    """gamma of a chain, one block of equal magnitudes at a time.

    ups[k] says whether the labels rise from chain vertex k to k+1, and
    ws[k] is the weight of vertex k.  Along a chain the values weakly
    increase, and a tie between neighbours is allowed exactly when its sign
    matches their direction: -m to -m needs the labels to go down, +m to +m
    needs them to go up, and -m to +m is free.  So the labels drop out, and
    chains with one pattern and one weight sequence share one cache entry.

    The magnitudes weakly increase, so they cut the chain into consecutive
    blocks of equal magnitude m_1 < ... < m_k, and the monomial is
    x_m1^b1 ... x_mk^bk with b_j the weight of block j.  Weights are
    positive, so b fixes the cut set: each (cut set, magnitudes) pair is a
    monomial of its own.  Inside a block the signs run -...-+...+, so the
    block takes m in
      1 way if Z holds only +m and the block never goes down,
      1 way if Z holds only -m and the block never goes up,
      2 ways if Z holds both and no up-step comes before a down-step
        (the sign changes at the valley's last down-step or just after it),
    and none otherwise.  Each condition, once false, stays false as the
    block grows, so the walk over cut sets stops extending a block as soon
    as no magnitude of Z can take it, and stops cutting once the blocks use
    up Z's magnitudes.  When every magnitude carries the same signs, a cut
    set's coefficient, the product of its block counts, is written at once
    on the monomials of M_b over Z's magnitudes.  Otherwise each block
    picks its magnitude as the walk goes, and the counts multiply.
    """
    if not ws:
        return _raw_poly(nvars, 0, {(): 1})
    signs: dict[int, int] = {}
    for z in zs:
        signs[abs(z)] = signs.get(abs(z), 0) | (_MINUS if z < 0 else _PLUS)
    kind = {m: _BOTH if s == _MINUS | _PLUS else s for m, s in signs.items()}
    mags = tuple(sorted(kind))
    kinds = sum(set(kind.values()))  # distinct bits: their sum is their union
    n = len(ws)
    acc: dict = {}
    if not kinds & (kinds - 1):  # one sign set for every magnitude
        per_block = 2 if kinds == _BOTH else 1
        stack = [(0, ())]  # (first vertex of the next block, block weights so far)
        while stack:
            start, bs = stack.pop()
            for nxt, b, _ in _blocks(ups, ws, start, kinds):
                if nxt == n:
                    monos = _m_monomials(bs + (b,), mags)
                    acc.update(dict.fromkeys(monos, per_block ** (len(bs) + 1)))
                elif len(bs) + 1 < len(mags):
                    stack.append((nxt, bs + (b,)))
    else:  # each block picks its magnitude as the walk goes
        # by kill mask, then by index j: (index, magnitude, ways) for the
        # magnitudes from mags[j] on that can take such a block
        takers: dict = {}
        stack = [(0, 0, 1, ())]  # (next vertex, next magnitude index, count, monomial)
        while stack:
            start, j, count, mono = stack.pop()
            for nxt, b, killed in _blocks(ups, ws, start, kinds):
                if killed not in takers:
                    fit = [
                        (i, m, 2 if kind[m] == _BOTH else 1)
                        for i, m in enumerate(mags) if not killed & kind[m]
                    ]
                    takers[killed] = [[t for t in fit if t[0] >= lo] for lo in range(len(mags))]
                for i, m, ways in takers[killed][j]:
                    if nxt == n:
                        acc[mono + ((m, b),)] = count * ways
                    elif i + 1 < len(mags):
                        stack.append((nxt, i + 1, count * ways, mono + ((m, b),)))
    return _raw_poly(nvars, sum(ws), acc)


def universal_gamma(
    pi: Iterable[int],
    alpha: Iterable[int],
    alphabet: Iterable[SignedValue],
    nvars: int | None = None,
) -> TruncatedPoly:
    """Generating function of the weighted chain of (pi, alpha).

    Specializations: unit weights over the positive alphabet give the
    fundamental function of pi; unit weights over the signed alphabet give
    its peak function; the identity permutation over the signed alphabet
    gives the enriched monomial of alpha; the reversed identity over the
    positive alphabet gives the monomial function of alpha.  Equal to
    ``gamma(weighted_chain(pi, alpha), alphabet, nvars)``, but read straight
    from the chain key without building the poset.
    """
    word, parts = _check_weighted_word(pi, alpha)
    zs = _check_alphabet(alphabet)
    nvars = _check_nvars(zs, nvars)
    ups = tuple(map(operator.lt, word, word[1:]))
    return _gamma_chain(ups, parts, zs, nvars)


def universal_to_eta(pi: Iterable[int], alpha: Iterable[int]) -> QSymElement:
    """Exact expansion of the weighted-chain generating function over the
    full signed alphabet into enriched monomials:

        sum over I inside Peak(pi) of (-1)^|I| eta_{alpha contracted at I}.
    """
    word, parts = _check_weighted_word(pi, alpha)
    peaks = peak_set_of_permutation(word)
    terms = []
    for chosen in subsets(peaks):
        sign = -1 if len(chosen) % 2 else 1
        terms.append((contract_set(parts, chosen), sign))
    return QSymElement("eta", terms)


def coshuffle_product(
    pi: Iterable[int],
    alpha: Iterable[int],
    sigma: Iterable[int],
    beta: Iterable[int],
) -> list[tuple[Permutation, Composition]]:
    """The coshuffle expansion of a product of two weighted-chain functions.

    For every finite alphabet Z the generating functions satisfy
    gamma(pi, alpha) * gamma(sigma, beta) = sum over the returned pairs.
    """
    return [(cp.perm, cp.comp) for cp in coshuffles(pi, alpha, sigma, beta)]


def split_incomparable(
    poset: LabelledWeightedPoset, i: int, j: int
) -> tuple[LabelledWeightedPoset, LabelledWeightedPoset]:
    """Split on an incomparable pair: the two one-relation-richer posets.

    Their generating functions sum to the original's for every finite
    alphabet (the two added relations cover mutually exclusive, exhaustive
    cases of the enriched conditions).
    """
    if poset.comparable(i, j):
        raise ValueError(f"labels {i} and {j} are comparable")
    if not (1 <= i <= poset.n and 1 <= j <= poset.n) or i == j:
        raise ValueError(f"invalid pair ({i}, {j})")
    return poset.with_relation(i, j), poset.with_relation(j, i)
