"""Labelled weighted posets and Z-enriched P-partitions.

Values live in the signed alphabet {..., -2, 2, -1, 1} ordered as
-1 < 1 < -2 < 2 < -3 < ...; a value is a nonzero int whose sign and
absolute value are the SignedValue's sign and magnitude.  An enriched
P-partition of a labelled poset assigns such a value to every vertex so
that along every relation i <_P j the values weakly increase, with ties
positive when the labels increase and negative when they decrease.
gamma sums x_|f(i)|^weight(i) over all such assignments into a finite
alphabet Z; on weighted chains it gives, at the right specializations,
the monomial, fundamental, peak and enriched monomial quasisymmetric
functions.

On a chain the conditions between neighbours imply all the others and
read the labels only through whether each step goes up, so _gamma_chain
caches a chain's gamma by its up-down pattern, weights and alphabet.  On
any poset, for each value z of Z in signed order, the vertices with
values up to z form an order ideal, and those at exactly z a set S in
which every relation rises in labels when z > 0 and falls when z < 0
(Stembridge, Enriched P-partitions, 1997).  So gamma walks multichains
of order ideals, one step per value z, each adding such a set S and
x_|z|^weight(S), with the ideal alone as its state, one connected
component at a time.

A poset stores its order once, as one closed predecessor bitmask per
vertex, and its covers, which the constructor reads off the relations it
is given as it closes the masks; relations are derived on demand.  Every
poset is built by the constructor, which alone writes them.  gamma reads
a chain component's order and weights straight from its poset, and
builds a component of its own only to walk it: one that is not a chain,
or any over an alphabet whose magnitudes carry different sign sets.
"""

from __future__ import annotations

import itertools
import math
import operator
from collections.abc import Iterable, Iterator, Mapping, Sequence
from functools import lru_cache

from .combinatorics import (
    Composition,
    Permutation,
    _check_count,
    check_composition,
    check_permutation,
    coshuffles,
    subsets,
)
from .core import QSymElement, _element, _over_budget
from .expansion import TruncatedPoly, _field_width, _m_monomials, _pack
from .expansion import _packed_mul, _raw_poly, _unpack

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
    """The alphabet's distinct values in signed order."""
    values = set()
    for z in alphabet:
        if not _is_int(z) or z == 0:
            raise ValueError(f"alphabet entries must be nonzero ints, got {z!r}")
        values.add(z)
    return tuple(sorted(values, key=signed_order_key))


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _bits(mask: int) -> list[int]:
    """The positions of the set bits of mask, lowest first."""
    return [i for i, bit in enumerate(reversed(bin(mask))) if bit == "1"]


# The most vertices a poset file may declare: gamma charges an antichain at
# least one step per vertex, so past _STEP_BUDGET it would refuse anyway.
_FILE_VERTEX_LIMIT = 10**6

# The most predecessor bits a closed order may hold, 128 MiB of masks: a
# chain of n holds n(n-1)/2, so the 40,000-vertex chain (8.0e8) still fits.
_CLOSURE_BUDGET = 1 << 30


class LabelledWeightedPoset:
    """A strict partial order on labels 1..n with a positive weight per vertex.

    The order is stored closed, as predecessor bitmasks: bit i of _preds[j]
    is set exactly when i <_P j, and _preds[0] is 0.  It is closed in
    topological order (Kahn): once its given predecessors are closed, a
    vertex ORs in their closed masks, and vertices never reached lie on a
    cycle.  Every cover is a given relation, since i < j derived through k
    has i < k < j, so j covers the given predecessors outside that OR:
    _below[j] holds them ascending, and _above[j] the vertices covering j.
    The bits of each closed mask are counted as it closes, and the order is
    refused once they pass _CLOSURE_BUDGET.  Instances are immutable and
    hashable.
    """

    __slots__ = ("n", "weights", "_preds", "_below", "_above")

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
        after: dict[int, list[int]] = {}  # given successors
        before: dict[int, list[int]] = {}  # given predecessors
        waiting = [0] * (n + 1)  # given predecessors not yet closed
        for i, j in relations:
            if not (_is_int(i) and _is_int(j) and 1 <= i <= n and 1 <= j <= n):
                raise ValueError(f"relation ({i}, {j}) outside labels 1..{n}")
            if i == j:
                raise ValueError(f"relation ({i}, {j}) is reflexive")
            after.setdefault(i, []).append(j)
            before.setdefault(j, []).append(i)
            waiting[j] += 1
        preds, below = [0] * (n + 1), [()] * (n + 1)  # closed masks, and lower covers
        ready = [v for v in range(1, n + 1) if not waiting[v]]
        held = 0  # the bits of the closed masks so far
        for i in ready:
            for j in after.get(i, ()):
                waiting[j] -= 1
                if waiting[j]:
                    continue
                covered = before[j]
                mask = preds[covered[0]]
                if len(covered) > 1:  # the covers: given predecessors below no other one
                    for k in covered:
                        mask |= preds[k]
                    covered = sorted({k for k in covered if not mask >> k & 1})
                for k in covered:
                    mask |= 1 << k
                preds[j], below[j] = mask, tuple(covered)
                ready.append(j)
                held += mask.bit_count()
                if held > _CLOSURE_BUDGET:
                    head = "the closed order needs at least"
                    raise _over_budget(head, held, "predecessor bits", _CLOSURE_BUDGET)
        if len(ready) < n:
            raise ValueError("relations contain a cycle; not a partial order")
        above = below = tuple(below)  # with no relation, no covers either way
        if held:
            up: list[list[int]] = [[] for _ in below]
            for j, covered in enumerate(below):
                for i in covered:
                    up[i].append(j)
            above = tuple(map(tuple, up))
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "_preds", tuple(preds))
        object.__setattr__(self, "_below", below)
        object.__setattr__(self, "_above", above)

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
        if not (_is_int(i) and 1 <= i <= self.n):
            raise ValueError(f"label {i!r} not in 1..{self.n}")
        return self.weights[i - 1]

    def incomparable_pairs(self) -> list[tuple[int, int]]:
        return [
            (i, j)
            for i in range(1, self.n + 1)
            for j in range(i + 1, self.n + 1)
            if not self.comparable(i, j)
        ]

    def covers(self) -> list[tuple[int, int]]:
        """Covering relations: i < j with no k strictly between, ascending."""
        return [(i, j) for i, above in enumerate(self._above) for j in above]

    def with_relation(self, i: int, j: int) -> "LabelledWeightedPoset":
        if self.less(j, i):
            raise ValueError(f"adding {i} < {j} would contradict {j} < {i}")
        return LabelledWeightedPoset(self.n, self.covers() + [(i, j)], self.weights)

    def linear_extension(self) -> tuple[int, ...]:
        """Smallest-label-first topological order, the first of linear_extensions()."""
        return next(self.linear_extensions())

    def linear_extensions(self) -> Iterator[tuple[int, ...]]:
        """Every linear extension, in lexicographic order of the label words:
        depth first with an explicit stack over a bitmask of the ready labels,
        unplaced with every predecessor placed.  Placing a label readies its
        direct successors with no ready predecessor; taking it back unreadies them."""
        n, preds, after = self.n, self._preds, self._above
        ready = sum(1 << v for v in range(1, n + 1) if not preds[v])
        tried = [0]  # tried[k]: the label placed at place k; at the last, the last one tried
        while tried:
            if len(tried) > n:
                yield tuple(tried[:n])
            later = ready >> tried[-1] + 1 << tried[-1] + 1
            if not later:  # the last place is done: take back the label before it
                tried.pop()
                if tried:
                    ready |= 1 << tried[-1]
                    for u in after[tried[-1]]:
                        ready &= ~(1 << u)
            else:
                v = tried[-1] = (later & -later).bit_length() - 1
                ready ^= 1 << v
                for u in after[v]:
                    if not preds[u] & ready:  # so all are placed: placed labels are closed downward
                        ready |= 1 << u
                tried.append(0)

    def chain_order(self) -> tuple[int, ...] | None:
        """The labels along the chain when the order is total, else None."""
        return _chain_order(self._preds, range(1, self.n + 1))

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
        if n > _FILE_VERTEX_LIMIT:
            raise ValueError(f"poset field 'n' must be at most {_FILE_VERTEX_LIMIT}, got {n}")
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
    return all(  # along the covers, which suffice (see _assignments)
        _respects(i, j, values[i - 1], values[j - 1])
        for j, below in enumerate(poset._below)
        for i in below
    )


def _assignments(poset: LabelledWeightedPoset, zs: tuple) -> Iterator[Assignment]:
    """Every enriched assignment into the checked alphabet zs.

    Depth-first along a linear extension, with an explicit stack, pruning a
    value as soon as it breaks a cover relation to an already-assigned
    vertex.  The covers suffice: along i < m < j, values that rise or tie
    at both covers rise from i to j, and a tie across both has one sign, so
    the labels move the same way along both covers and so from i to j.
    """
    n, covered = poset.n, poset._below
    order = poset.linear_extension()
    vals: list[SignedValue] = [0] * (n + 1)  # by label; entry 0 is unused
    stack = [(0, 0)]  # (place k in order, the index in zs of the next value to try there)
    while stack:
        k, t = stack.pop()
        if k == n:
            yield tuple(vals[1:])
            continue
        label = order[k]
        below = covered[label]
        for t in range(t, len(zs)):
            if all(_respects(i, label, vals[i], zs[t]) for i in below):
                vals[label] = zs[t]
                stack += ((k, t + 1), (k + 1, 0))
                break


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
        head = f"{len(zs)} values on {poset.n} vertices give"
        raise _over_budget(head, candidates, "candidate assignments", _ASSIGNMENT_BUDGET)
    out = list(_assignments(poset, zs))
    out.sort(key=lambda t: tuple(signed_order_key(v) for v in t))
    return out


# ---------------------------------------------------------------------------
# generating functions

# gamma's work budget in steps, over the whole call: each (order ideal, set
# it can grow by at a sign Z has) in its tables, and each monomial of a
# chain component, counted before any polynomial work; then each
# monomial a walk carries along a step, and each pair of terms a product
# multiplies.  A step is charged the 64-bit words of the int it builds, a
# mask or a packed monomial.  From {1}, the fan 1 < {2, ..., 40} has 2^39
# sets to grow by.
_STEP_BUDGET = 10**6


def _spend(spent: int, steps: int) -> int:
    if spent + steps > _STEP_BUDGET:
        raise ValueError(f"gamma takes more than {_STEP_BUDGET} steps")
    return spent + steps


def _chain_steps(n: int, ups: tuple, signs: dict[int, int], width: int) -> int:
    """The charge of a chain of n vertices with up-down pattern ups over
    magnitudes that all carry one sign set: its monomials, each the 64-bit
    words of a monomial packed width bits per variable.

    A monomial is a cut set with j blocks (see _chain_m_terms) and j of the
    k magnitudes.  Over +m only each descent is cut, over -m only each
    ascent; over both, each peak's two steps hold one cut or two, which
    counts as x(2 + x) = x(1 + (1 + x)) by cuts.  The other steps are free.
    With d forced cuts and f free steps, Vandermonde sums C(k, j) over the
    cut sets to C(f + k, k - d - 1), and a peak's second choice adds a free
    step: t of them add C(d, t) C(f + t + k, k - d - 1).  The sum stops
    once it passes _STEP_BUDGET.
    """
    k, kind = len(signs), next(iter(signs.values()), 0)
    if kind == _MINUS | _PLUS:  # d peaks, each an ascent then a descent
        d = sum(map(operator.gt, ups, ups[1:]))
        free, ts = n - 1 - 2 * d, range(d + 1)
    else:  # d descents over +m, ascents over -m
        d = ups.count(kind == _MINUS)
        free, ts = n - 1 - d, range(1)
    count = 0 if n else 1
    for t in ts if n and d < k else ():
        count += math.comb(d, t) * math.comb(free + t + k, k - d - 1)
        if count > _STEP_BUDGET:  # refused already: the sum stops
            break
    return count * (1 + k * width // 64)


def gamma(
    poset: LabelledWeightedPoset,
    alphabet: Iterable[SignedValue],
    nvars: int | None = None,
) -> TruncatedPoly:
    """Sum of prod_i x_|f(i)|^weight(i) over all enriched assignments into Z.

    The result lives in x_1..x_nvars (default: the largest magnitude in Z)
    with degree bound equal to the total weight.  The work runs on Z's
    magnitudes renumbered 1..k, which keeps the signed order, and on one
    connected component at a time, since their functions multiply: a chain
    by _gamma_chain if every magnitude carries the same signs, read off the
    poset's own masks with no poset built, any other by the walk over order
    ideals, on the poset itself or on the component built by _subposet,
    once _steps has sized every walk and _chain_steps every chain; refused
    past _STEP_BUDGET.
    """
    zs = _check_alphabet(alphabet)
    nvars = _check_nvars(zs, nvars)
    signs = _sign_sets(zs)
    rank = {m: i for i, m in enumerate(signs, 1)}
    ranked = tuple(rank[z] if z > 0 else -rank[-z] for z in zs)
    degree = sum(poset.weights)
    width = _field_width(degree)
    words = 1 + len(rank) * width // 64  # of a packed monomial, the charge of each product
    one_kind = len(set(signs.values())) < 2  # so a chain goes to _gamma_chain
    parts, spent = [], 0  # (walk table and vertex count) or (None, chain ups and weights)
    for labels in _components(poset):
        order = _chain_order(poset._preds, labels) if one_kind else None
        if order is None:
            part = poset if len(labels) == poset.n else _subposet(poset, labels)
            table, spent = _steps(part, {z > 0 for z in zs}, spent)
            parts.append((table, part.n))
        else:
            ups = _ups(order)
            spent = _spend(spent, _chain_steps(len(order), ups, signs, width))
            parts.append((None, (ups, tuple(poset.weights[v - 1] for v in order))))
    product = {0: 1}  # the components' functions so far, packed as in poly_mul
    for table, part in parts:
        if table is not None:
            product, spent = _walk(part, table, ranked, width, product, spent)
            continue
        terms = _gamma_chain(*part, ranked, len(rank)).terms
        if len(parts) == 1:  # a chain alone: its function as it is
            break
        spent = _spend(spent, len(product) * len(terms) * words)
        product = _packed_mul({_pack(mono, width): c for mono, c in terms.items()}, product)
    else:  # no break
        terms = {_unpack(mono, width): c for mono, c in product.items()}
    mags = list(rank)
    if mags[-1:] != [len(mags)]:  # the ranks back to Z's magnitudes
        terms = {tuple((mags[v - 1], e) for v, e in mono): c for mono, c in terms.items()}
    return _raw_poly(nvars, degree, terms)


def _components(poset: LabelledWeightedPoset) -> list[list[int]]:
    """The labels of each connected component, ascending, found by
    union-find along the stored covers, in order of their smallest labels;
    one empty list for the empty poset."""
    above, root = poset._above, list(range(poset.n + 1))

    def find(v: int) -> int:
        while root[v] != v:
            root[v] = root[root[v]]
            v = root[v]
        return v

    for i in range(1, poset.n + 1):
        for j in above[i]:
            root[find(i)] = find(j)
    comps: dict[int, list[int]] = {}  # root: its component's labels, ascending
    for v in range(1, poset.n + 1):
        comps.setdefault(find(v), []).append(v)
    return list(comps.values()) or [[]]


def _chain_order(preds: Sequence[int], labels: Sequence[int]) -> tuple[int, ...] | None:
    """The labels along the chain when the order on labels, a component or
    the whole poset, is total, else None.  It is total exactly when their
    predecessor counts are 0..k-1, each once; then the label with j
    predecessors sits at place j."""
    order = [0] * len(labels)
    for v in labels:
        order[preds[v].bit_count()] = v
    return None if 0 in order else tuple(order)


def _subposet(poset: LabelledWeightedPoset, labels: list[int]) -> LabelledWeightedPoset:
    """The component on labels, ascending, built by the constructor from its
    covers, relabelled 1..k in label order (all the tie rule reads), and its
    weights."""
    index = {v: k for k, v in enumerate(labels, 1)}
    covers = [(index[i], index[j]) for i in labels for j in poset._above[i]]
    return LabelledWeightedPoset(len(labels), covers, [poset.weights[v - 1] for v in labels])


def _steps(poset: LabelledWeightedPoset, signs: set, spent: int) -> tuple[dict, int]:
    """The walk's table, and spent plus its steps: for each order ideal, a
    row of (ideal after, weight added) per nonempty set S it can grow by at
    z > 0, and one at z < 0, each built only if Z has a value of that sign
    (True or False in signs).  A relation inside S must rise in labels at
    z > 0 and fall at z < 0, so S grows in label order, up or down, by the
    free vertices past its last one: those outside the ideal and S whose
    predecessors are all inside.  A vertex that joins frees only direct
    successors, so the free set is carried along; it is the next ideal's."""
    n, preds, weights, after = poset.n, poset._preds, poset.weights, poset._above
    words = 1 + n // 64  # of a mask, the charge of each step
    table: dict[int, list[list]] = {}
    todo = {0: sum(1 << v for v in range(1, n + 1) if not preds[v])}  # ideal: its free vertices
    while todo:
        ideal, ready = todo.popitem()
        table[ideal] = []
        for up in (True, False):
            row: list[tuple[int, int]] = []
            stack = [(ideal, 0, 0 if up else n + 1, ready)] if up in signs else []
            while stack:  # (ideal and S, weight of S, last to join, free vertices)
                grown, w, last, free = stack.pop()
                may = free >> last + 1 << last + 1 if up else free & (1 << last) - 1
                # may is an antichain, so every nonempty subset of it, joined
                # in order, is a row still to come: a check that charges
                # nothing, its exponent capped so no big int is built
                _spend(spent, ((1 << min(may.bit_count(), 64)) - 1) * words)
                spent = _spend(spent, may.bit_count() * words)
                while may:
                    bit = may & -may
                    may ^= bit
                    v = bit.bit_length() - 1
                    joined, still = grown | bit, free ^ bit
                    for u in after[v]:
                        if preds[u] & ~joined == 0:
                            still |= 1 << u
                    row.append((joined, w + weights[v - 1]))
                    stack.append((joined, w + weights[v - 1], v, still))
                    if joined not in table:
                        todo[joined] = still
            table[ideal].append(row)
    return table, spent


def _walk(n: int, table: dict, zs: tuple, width: int, start: dict, spent: int) -> tuple[dict, int]:
    """start times gamma of the poset of n vertices the _steps table was
    built from, and spent plus the steps it took.  Each ideal holds its
    monomials so far, packed with width bits per variable, the empty ideal
    those of start; at each value of Z, in signed order, the ideals move
    largest first, so a step, which only grows an ideal, adds into one that
    has already moved."""
    words = 1 + max(map(abs, zs), default=0) * width // 64  # of a packed monomial
    states = {0: start}
    for z in zs:
        shift, row = (abs(z) - 1) * width, int(z < 0)
        for ideal in sorted(states, reverse=True):
            here, steps = states[ideal], table[ideal][row]
            spent = _spend(spent, len(here) * len(steps) * words)
            for nxt, w in steps:
                there = states.setdefault(nxt, {})
                w <<= shift
                for mono, c in here.items():
                    there[mono + w] = there.get(mono + w, 0) + c
    return states.get((1 << n + 1) - 2, {}), spent


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


def _sign_sets(zs: tuple) -> dict[int, int]:
    """Each magnitude of a checked alphabet, ascending, with its sign set."""
    signs: dict[int, int] = {}
    for z in zs:
        signs[abs(z)] = signs.get(abs(z), 0) | (_MINUS if z < 0 else _PLUS)
    return signs


@lru_cache(maxsize=4096)
def _gamma_chain(ups: tuple, ws: tuple, zs: tuple, nvars: int) -> TruncatedPoly:
    """gamma of a chain from its up-down pattern, weights and alphabet.

    ups[k] says whether the labels rise from chain vertex k to k+1, and
    ws[k] is the weight of vertex k.  Every magnitude of the checked
    alphabet zs carries the same signs, or _chain_m_terms refuses it;
    universal_gamma sends a chain over a mixed alphabet to gamma.  Each of
    _chain_m_terms' c_b, keyed by the code of b, is written onto the
    monomials of M_b over Z's magnitudes: one walk serves this writer and
    the callers that sum chain functions by M-coefficient.  A chain whose
    monomials pass _STEP_BUDGET is refused before the walk.
    """
    signs, acc = _sign_sets(zs), {}
    _spend(0, _chain_steps(len(ws), ups, signs, _field_width(sum(ws))))
    mags = tuple(signs)
    for code, c in _chain_m_terms(ups, ws, zs).items():
        acc.update(dict.fromkeys(_m_monomials(code, mags), c))
    return _raw_poly(nvars, sum(ws), acc)


def _chain_m_terms(ups: tuple, ws: tuple, zs: tuple) -> dict[int, int]:
    """A chain's function as {code(b): c_b}, the sum of c_b M_b over the k
    magnitudes of a checked alphabet zs in which each carries the same
    signs; every b has at most k parts.  One block of equal magnitudes at
    a time.

    Along a chain the values weakly increase, and a tie between neighbours
    is allowed exactly when its sign matches their direction: -m to -m
    needs the labels to go down, +m to +m needs them to go up, and -m to +m
    is free.  So the labels drop out, and chains with one pattern and one
    weight sequence share one function.

    The magnitudes weakly increase, so they cut the chain into consecutive
    blocks of equal magnitude m_1 < ... < m_j, and the monomial is
    x_m1^b1 ... x_mj^bj with b_i the weight of block i.  Weights are
    positive, so b fixes the cut set: each cut set is a composition b of
    its own, whose code has the bit of the weight prefix sum at each
    block's last vertex.  Inside a block the signs run -...-+...+, so the
    block takes m in
      1 way if Z holds only +m and the block never goes down,
      1 way if Z holds only -m and the block never goes up,
      2 ways if Z holds both and no up-step comes before a down-step
        (the sign changes at the valley's last down-step or just after it),
    and none otherwise.  Each condition, once false, stays false as the
    block grows, so the walk over cut sets stops extending a block as soon
    as Z's sign set cannot take it, and cuts before vertex s only if the
    blocks so far and need[s] more fit in Z's k magnitudes, so every cut set
    it starts finishes: need[s], the fewest blocks that cover s..n-1, takes
    the longest block each time, since a part of a block is one.  c_b is
    the product of b's block counts.
    """
    if not ws:
        return {0: 1}
    signs = _sign_sets(zs)
    kinds = set(signs.values())
    if len(kinds) > 1:
        raise ValueError(f"the magnitudes of {zs} carry different sign sets")
    kind = kinds.pop() if kinds else 0
    kind, per_block = (_BOTH, 2) if kind == _MINUS | _PLUS else (kind, 1)
    n, k, acc = len(ws), len(signs), {}
    ends = [1 << s - 1 for s in itertools.accumulate(ws)]  # code bit of a block ending there
    need = [1] * n + [0]  # a bound that serves while k >= n: the blocks cannot run out
    if k < n:
        reach = rise = n - 1  # from s: the last vertex of the longest block, of the longest rise
        for s in range(n - 2, -1, -1):
            if ups[s]:
                reach = s if kind == _MINUS else rise
            else:
                rise = s
                reach = s if kind == _PLUS else reach
            need[s] = 1 + need[reach + 1]
    stack = [(0, 0)] if k else []  # (first vertex of the next block, code of the blocks so far)
    while stack:
        start, code = stack.pop()
        blocks = code.bit_count() + 1  # with the block that starts here
        killed = 0  # the sign sets that cannot take the block
        for end in range(start, n):
            if end > start:
                if ups[end - 1]:
                    killed |= _MINUS
                else:  # a down-step after an up-step is a peak
                    killed |= _PLUS | (_BOTH if killed & _MINUS else 0)
                if killed & kind:
                    break
            if end + 1 == n:
                acc[code | ends[end]] = per_block ** blocks
            elif blocks + need[end + 1] <= k:
                stack.append((end + 1, code | ends[end]))
    return acc


def _ups(word: Sequence[int]) -> tuple[bool, ...]:
    """The up-down pattern of a word: whether each neighbouring pair rises."""
    return tuple(map(operator.lt, word, word[1:]))


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
    ``gamma(weighted_chain(pi, alpha), alphabet, nvars)``: read from the chain
    key, or walked by gamma when Z's magnitudes carry different sign sets,
    and refused as gamma refuses a chain past its step budget.
    """
    word, parts = _check_weighted_word(pi, alpha)
    zs = _check_alphabet(alphabet)
    nvars = _check_nvars(zs, nvars)
    if len(set(_sign_sets(zs).values())) > 1:
        return gamma(weighted_chain(word, parts), zs, nvars)
    return _gamma_chain(_ups(word), parts, zs, nvars)


_SIGNS = (1, -1)


def universal_to_eta(pi: Iterable[int], alpha: Iterable[int]) -> QSymElement:
    """Exact expansion of the weighted-chain generating function over the
    full signed alphabet into enriched monomials:

        sum over I inside Peak(pi) of (-1)^|I| eta_{alpha contracted at I}.
    """
    word, parts = _check_weighted_word(pi, alpha)
    # The code of alpha has one bit per partial sum.  Contracting at peak i
    # merges parts i-1, i and i+1, so it clears the bits that end parts i-1
    # and i.  The peaks of a permutation are interior and no two are
    # adjacent, so every subset of them contracts, and distinct subsets
    # clear distinct bits: each index comes from one subset, with its sign,
    # so the terms are already canonical: nonzero, distinct, over 1.
    # The peaks are read from the checked word, not checked again.
    ends = [1 << s - 1 for s in itertools.accumulate(parts)]
    peaks = (i for i in range(2, len(word)) if word[i - 2] < word[i - 1] > word[i])
    cuts = [ends[i - 2] | ends[i - 1] for i in peaks]
    code = sum(ends)
    terms = {code ^ sum(chosen): _SIGNS[len(chosen) % 2] for chosen in subsets(cuts)}
    return _element("eta", terms, 1)


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
