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
the chain and the alphabet, and it is cached by exactly that key.  The
enriched P-partitions of any other poset split disjointly over its linear
extensions (Stembridge's fundamental lemma), so its gamma is the sum of
the chain functions of its extensions.
"""

from __future__ import annotations

import itertools
from collections import Counter
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
from .expansion import TruncatedPoly, _field_width, _raw_poly, _unpack

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
        if not isinstance(z, int) or isinstance(z, bool) or z == 0:
            raise ValueError(f"alphabet entries must be nonzero ints, got {z!r}")
        values.add(z)
    return tuple(sorted(values, key=signed_order_key))


_check_int_tuple = lru_cache(maxsize=256)(_sorted_alphabet)


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


class LabelledWeightedPoset:
    """A strict partial order on labels 1..n with a positive weight per vertex.

    Relations are stored transitively closed; construction rejects cycles.
    Instances are immutable and hashable.
    """

    __slots__ = ("n", "weights", "_less")

    def __init__(
        self,
        n: int,
        relations: Iterable[tuple[int, int]] = (),
        weights: Sequence[int] | None = None,
    ):
        if n < 0:
            raise ValueError("n must be nonnegative")
        if weights is None:
            weights = (1,) * n
        weights = tuple(weights)
        if len(weights) != n:
            raise ValueError(f"expected {n} weights, got {len(weights)}")
        if any(not _is_int(w) or w < 1 for w in weights):
            raise ValueError("weights must be positive integers")
        succ: dict[int, set[int]] = {v: set() for v in range(1, n + 1)}
        for i, j in relations:
            if not (1 <= i <= n and 1 <= j <= n):
                raise ValueError(f"relation ({i}, {j}) outside labels 1..{n}")
            if i == j:
                raise ValueError(f"relation ({i}, {j}) is reflexive")
            succ[i].add(j)
        for k in range(1, n + 1):
            for i in range(1, n + 1):
                if k in succ[i]:
                    succ[i] |= succ[k]
        for v in range(1, n + 1):
            if v in succ[v]:
                raise ValueError("relations contain a cycle; not a partial order")
        less = frozenset((i, j) for i in succ for j in succ[i])
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "_less", less)

    def __setattr__(self, name, value):
        raise AttributeError("LabelledWeightedPoset is immutable")

    def less(self, i: int, j: int) -> bool:
        return (i, j) in self._less

    def comparable(self, i: int, j: int) -> bool:
        return (i, j) in self._less or (j, i) in self._less

    @property
    def relations(self) -> frozenset:
        return self._less

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
        return sorted(
            (i, j)
            for i, j in self._less
            if not any((i, k) in self._less and (k, j) in self._less for k in range(1, self.n + 1))
        )

    def with_relation(self, i: int, j: int) -> "LabelledWeightedPoset":
        if self.less(j, i):
            raise ValueError(f"adding {i} < {j} would contradict {j} < {i}")
        return LabelledWeightedPoset(self.n, list(self._less) + [(i, j)], self.weights)

    def linear_extension(self) -> tuple[int, ...]:
        """Smallest-label-first topological order."""
        return next(self.linear_extensions())

    def linear_extensions(self) -> Iterator[tuple[int, ...]]:
        """Every linear extension, in lexicographic order of the label words:
        depth first, testing each label's predecessor bitmask."""
        n = self.n
        preds = [0] * (n + 1)
        for i, j in self._less:
            preds[j] |= 1 << i

        def rec(word: tuple, placed: int) -> Iterator[tuple[int, ...]]:
            if len(word) == n:
                yield word
            for v in range(1, n + 1):
                if not placed >> v & 1 and preds[v] & placed == preds[v]:
                    yield from rec(word + (v,), placed | 1 << v)

        return rec((), 0)

    def chain_order(self) -> tuple[int, ...] | None:
        """The labels along the chain when the order is total, else None.

        An order is total exactly when all n(n-1)/2 pairs are related; then
        the vertex with k successors sits k places from the top.
        """
        n = self.n
        if len(self._less) != n * (n - 1) // 2:
            return None
        order = [0] * n
        successors = [0] * (n + 1)
        for i, _ in self._less:
            successors[i] += 1
        for v in range(1, n + 1):
            order[n - 1 - successors[v]] = v
        return tuple(order)

    def __eq__(self, other):
        if not isinstance(other, LabelledWeightedPoset):
            return NotImplemented
        return (
            self.n == other.n
            and self.weights == other.weights
            and self._less == other._less
        )

    def __hash__(self):
        return hash((self.n, self.weights, self._less))

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
        """Read ``to_json_dict``'s form; ValueError names a malformed field."""
        if not isinstance(data, Mapping):
            raise ValueError(f"a poset must be a JSON object, got {type(data).__name__}")
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

    @classmethod
    def _chain(cls, word: Permutation, weights: tuple[int, ...]) -> "LabelledWeightedPoset":
        """The chain of a checked word, with checked weights indexed by label.

        Every ordered pair along the chain is listed, so the relations are
        already transitively closed and acyclic: no closure pass is needed.
        """
        poset = cls.__new__(cls)
        object.__setattr__(poset, "n", len(word))
        object.__setattr__(poset, "weights", weights)
        object.__setattr__(poset, "_less", frozenset(itertools.combinations(word, 2)))
        return poset


def chain_poset(pi: Iterable[int]) -> LabelledWeightedPoset:
    """The total order pi_1 <_P pi_2 <_P ... <_P pi_n with unit weights."""
    word = check_permutation(pi)
    return LabelledWeightedPoset._chain(word, (1,) * len(word))


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
    return LabelledWeightedPoset._chain(word, tuple(weights))


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
        signed_order_key(v)  # validates nonzero
    return all(
        _respects(i, j, values[i - 1], values[j - 1]) for i, j in poset.relations
    )


def _assignments(poset: LabelledWeightedPoset, zs: tuple) -> Iterator[Assignment]:
    """Every enriched assignment into the checked alphabet zs.

    Depth-first along a linear extension, pruning a value as soon as it
    breaks a relation to an already-assigned vertex.
    """
    n = poset.n
    order = poset.linear_extension()
    preds = [
        [j for j in range(k) if poset.less(order[j], order[k])] for k in range(n)
    ]
    vals: list[SignedValue] = [0] * n

    def rec(k: int) -> Iterator[Assignment]:
        if k == n:
            by_label = [0] * n
            for pos, label in enumerate(order):
                by_label[label - 1] = vals[pos]
            yield tuple(by_label)
            return
        label = order[k]
        for z in zs:
            if all(_respects(order[j], label, vals[j], z) for j in preds[k]):
                vals[k] = z
                yield from rec(k + 1)

    return rec(0)


def enumerate_assignments(
    poset: LabelledWeightedPoset, alphabet: Iterable[SignedValue]
) -> list[Assignment]:
    """All enriched assignments into a finite alphabet, canonically ordered.

    Brute force with pruning along a linear extension; the output order is
    by signed order of the values at labels 1, 2, ....
    """
    out = list(_assignments(poset, _check_alphabet(alphabet)))
    out.sort(key=lambda t: tuple(signed_order_key(v) for v in t))
    return out


# ---------------------------------------------------------------------------
# generating functions


def gamma(
    poset: LabelledWeightedPoset,
    alphabet: Iterable[SignedValue],
    nvars: int | None = None,
) -> TruncatedPoly:
    """Sum of prod_i x_|f(i)|^weight(i) over all enriched assignments into Z.

    The result lives in x_1..x_nvars (default: the largest magnitude in Z)
    with degree bound equal to the total weight.  A chain returns its
    shared cached result; otherwise each distinct chain key among the
    linear extensions is added once, times its count.
    """
    zs = _check_alphabet(alphabet)
    nvars = _check_nvars(zs, nvars)

    def chain_key(word: tuple) -> tuple:
        return _up_steps(word), tuple(poset.weights[label - 1] for label in word)

    chain = poset.chain_order()
    if chain is not None:
        return _gamma_chain(*chain_key(chain), zs, nvars)
    acc: dict = {}
    for key, count in Counter(map(chain_key, poset.linear_extensions())).items():
        for mono, c in _gamma_chain(*key, zs, nvars).terms.items():
            acc[mono] = acc.get(mono, 0) + count * c
    return _raw_poly(nvars, sum(poset.weights), acc)


def _check_nvars(zs: tuple, nvars: int | None) -> int:
    """The variable count for a checked alphabet (default: its largest magnitude)."""
    top = max((abs(z) for z in zs), default=0)
    if nvars is None:
        return top
    if nvars < 0:
        raise ValueError(f"nvars must be nonnegative, got {nvars}")
    if top > nvars:
        raise ValueError(f"alphabet magnitude {top} exceeds the variable count {nvars}")
    return nvars


def _up_steps(word: tuple) -> tuple:
    """Whether the labels rise at each step along a chain."""
    return tuple(a < b for a, b in zip(word, word[1:]))


@lru_cache(maxsize=4096)
def _gamma_chain(ups: tuple, ws: tuple, zs: tuple, nvars: int) -> TruncatedPoly:
    """gamma of a chain by a transfer-matrix pass along it.

    ups[k] says whether the labels rise from chain vertex k to k+1, and
    ws[k] is the weight of vertex k.  Conditions between neighbours imply
    the rest (a tie across several steps is a tie at each step, of one
    sign), and a tie between neighbours is allowed exactly when its sign
    matches their direction, so the labels drop out: chains with one
    pattern and one weight sequence share one cache entry.

    For consecutive chain vertices the allowed previous values form a
    prefix of the signed order (plus an equality case depending on the
    direction), so one running prefix sum per step replaces the |Z|^2
    transition scan.  States are keyed by packed monomials, so assigning
    value z to a vertex of weight w adds w << shift[z].
    """
    if not ws:
        return _raw_poly(nvars, 0, {(): 1})
    degree = sum(ws)
    width = _field_width(degree)
    shift = {z: (abs(z) - 1) * width for z in zs}
    states: list[dict] = [{ws[0] << shift[z]: 1} for z in zs]
    for eq_positive, w in zip(ups, ws[1:]):
        running: dict = {}
        new_states: list[dict] = []
        for z, state in zip(zs, states):
            step = w << shift[z]
            new = {key + step: c for key, c in running.items()}
            if (z > 0) == eq_positive:
                for key, c in state.items():
                    new[key + step] = new.get(key + step, 0) + c
            new_states.append(new)
            for key, c in state.items():
                running[key] = running.get(key, 0) + c
        states = new_states
    acc: dict = {}
    for state in states:
        for key, c in state.items():
            acc[key] = acc.get(key, 0) + c
    return _raw_poly(nvars, degree, {_unpack(key, width): c for key, c in acc.items()})


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
    return _gamma_chain(_up_steps(word), parts, zs, nvars)


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
