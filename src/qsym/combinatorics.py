"""Compositions, permutations, descent and peak statistics, shuffles.

Conventions used throughout the package:

- A *composition* is a tuple of positive ints; the empty tuple is the empty
  composition.  ``sum(alpha)`` is its size, ``len(alpha)`` its length.
- A *permutation* of [n] is its one-line word, a tuple containing each of
  1..n exactly once.  The empty tuple is the unique permutation of [0].
- A *subset of [n-1]* is a strictly increasing tuple of ints; the ambient n
  is always passed alongside where it matters.

All functions are pure and all values are immutable.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Iterator, NamedTuple, Sequence

Composition = tuple[int, ...]
Permutation = tuple[int, ...]
Subset = tuple[int, ...]


def check_composition(alpha: Iterable[int]) -> Composition:
    """Coerce to a tuple and verify every part is a positive integer."""
    parts = tuple(alpha)
    for a in parts:
        if not isinstance(a, int) or isinstance(a, bool) or a < 1:
            raise ValueError(f"composition parts must be positive integers, got {parts!r}")
    return parts


def check_permutation(pi: Iterable[int]) -> Permutation:
    """Coerce to a tuple and verify it is a rearrangement of 1..n in plain
    ints (True and 1.0 compare equal to 1, so the sort alone passes them)."""
    word = tuple(pi)
    if sorted(word) != list(range(1, len(word) + 1)) or not {int}.issuperset(map(type, word)):
        raise ValueError(f"not a permutation of 1..{len(word)}: {word!r}")
    return word


def _check_count(name: str, value) -> None:
    """Refuse a size, variable count or degree bound that is not a
    nonnegative int (True is an int to Python, not a count)."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise ValueError(f"{name} must be an int, got {value!r}")
    if value < 0:
        raise ValueError(f"{name} must be nonnegative, got {value}")


def _index_set(s: Iterable[int]) -> list[int]:
    """The elements of an index set, sorted, refused unless each is a plain
    int (True and 2.0 compare equal to 1 and 2, so range checks pass them)."""
    elems = tuple(s)
    if not {int}.issuperset(map(type, elems)):
        raise ValueError(f"index sets hold ints, got {elems!r}")
    return sorted(elems)


def identity_permutation(n: int) -> Permutation:
    """1 2 ... n in one-line notation."""
    return tuple(range(1, n + 1))


def reversed_identity(n: int) -> Permutation:
    """n n-1 ... 1 in one-line notation."""
    return tuple(range(n, 0, -1))


def subsets(items: Sequence) -> Iterator[tuple]:
    """All subsets of ``items`` as tuples, by increasing size.

    Generic over the items, which it never compares or checks, unlike the
    index-set helpers below, which take ints only.

    >>> list(subsets((1, 2)))
    [(), (1,), (2,), (1, 2)]
    """
    return itertools.chain.from_iterable(
        itertools.combinations(items, r) for r in range(len(items) + 1)
    )


def is_peak_lacunar(s: Iterable[int]) -> bool:
    """True iff the set neither contains 1 nor two consecutive integers.

    >>> is_peak_lacunar((4, 7))
    True
    >>> is_peak_lacunar((1, 3))
    False
    >>> is_peak_lacunar((3, 4))
    False
    """
    elems = sorted(s)
    if 1 in elems:
        return False
    return all(b - a >= 2 for a, b in zip(elems, elems[1:]))


# ---------------------------------------------------------------------------
# compositions <-> subsets of [n-1]
#
# A subset S of [n-1] is also an int, its mask, with bit i-1 set exactly
# when i is in S.  A composition is stored as its code, the mask of all its
# partial sums n included: the descent mask with bit n-1 set, and 0 for
# (), so n is code.bit_length() and distinct compositions have distinct
# codes.  _code encodes, _composition_of_code decodes a byte at a time, and
# every other form goes through these two: the descent mask of alpha is the
# code of alpha[:-1], and compositions, composition_of_subset and
# complement decode masks with the top bit added.
#
# An odd composition is also fixed by its peak set.  A part a that starts
# after position s has its peaks at s+2, s+4, ..., s+a-1, and q is a
# descent exactly when neither q nor q+1 is a peak, so its non-descents in
# [n-1] are P | P >> 1 for its peak mask P.  No peak is 1 and no two peaks
# are adjacent, so that union is the sum P + P/2: the non-descents are
# 3 * (P >> 1), the one identity by which _peaks_of_code and _code_of_peaks
# go between a code and a peak mask, and by which _is_odd_code recognises
# the codes of odd compositions.


def descent_set(alpha: Iterable[int]) -> Subset:
    """Proper partial sums of a composition.

    >>> descent_set((1, 1, 3, 3, 1))
    (1, 2, 5, 8)
    >>> descent_set((5,))
    ()
    """
    return tuple(itertools.accumulate(check_composition(alpha)[:-1]))


def _code(parts: tuple) -> int:
    """The code of parts, bit s-1 for each partial sum s, refused as
    ``check_composition`` refuses them.  A part of type ``int`` skips the two
    ``isinstance`` calls, a third of a constructor's time."""
    code = total = 0
    for a in parts:
        if type(a) is not int and (not isinstance(a, int) or isinstance(a, bool)) or a < 1:
            raise ValueError(f"composition parts must be positive integers, got {parts!r}")
        total += a
        code |= 1 << total - 1
    return code


def _descent_mask(comp: Composition) -> int:
    """Bit i-1 is set exactly when i is a descent of comp."""
    return _code(comp[:-1])


def _mask_bytes() -> tuple[bytes, list[bytes], bytes, bytes]:
    """For each byte: the position of its first set bit, the gaps between
    its set bits, the position of its last set bit (counting bit i as
    position i + 1; 0 for the zero byte), and the byte with its bits
    reversed.  Each entry extends the entry of the byte without its top bit.

    The entries are bytes, which the garbage collector does not track, so
    building the table at import adds no objects for it to count or scan
    (a table of tuples added about 500, enough to set off an extra
    collection during ``import qsym``).
    """
    firsts, gaps, lasts, flips = [0], [b""], [0], [0]
    for byte in range(1, 256):
        top = byte.bit_length()
        rest = byte ^ 1 << (top - 1)
        firsts.append(firsts[rest] if rest else top)
        gaps.append(gaps[rest] + bytes((top - lasts[rest],)) if rest else b"")
        lasts.append(top)
        flips.append(flips[rest] | 1 << (8 - top))
    return bytes(firsts), gaps, bytes(lasts), bytes(flips)


_FIRST_BIT, _BIT_GAPS, _LAST_BIT, _FLIPPED = _mask_bytes()


def _composition_of_code(code: int) -> Composition:
    """The composition with this code, decoded a byte at a time."""
    if code < 256:
        return (_FIRST_BIT[code], *_BIT_GAPS[code]) if code else ()
    parts: list[int] = []
    last = base = 0
    while code:
        byte = code & 255
        if byte:
            parts.append(base + _FIRST_BIT[byte] - last)
            parts += _BIT_GAPS[byte]
            last = base + _LAST_BIT[byte]
        code >>= 8
        base += 8
    return tuple(parts)


def _composition_of_mask(n: int, mask: int) -> Composition:
    """The composition of n with descent mask ``mask``."""
    return _composition_of_code(mask | 1 << n >> 1)


def _reversed_code(code: int) -> int:
    """The code of the reversed composition: its descent mask, n-1 bits,
    read backwards a byte at a time."""
    n = code.bit_length()
    if n < 3:
        return code
    width = (n + 6) // 8  # bytes that hold n-1 bits
    top = 1 << n - 1
    flipped = (code ^ top).to_bytes(width, "little").translate(_FLIPPED)
    return int.from_bytes(flipped, "big") >> 8 * width - n + 1 | top


def _subset_mask(n: int, elems: Sequence[int]) -> int:
    """The mask of distinct ints elems, refused unless each lies in [1, n-1]."""
    if any(not 1 <= x <= n - 1 for x in elems):
        raise ValueError(f"subset {tuple(elems)!r} not contained in [1, {n - 1}]")
    return sum(1 << (x - 1) for x in elems)


def composition_of_subset(n: int, s: Iterable[int]) -> Composition:
    """The unique composition of n whose descent set is ``s``.

    Inverse of :func:`descent_set`.

    >>> composition_of_subset(9, (1, 2, 5, 8))
    (1, 1, 3, 3, 1)
    >>> composition_of_subset(4, ())
    (4,)
    """
    _check_count("n", n)
    elems = _index_set(s)
    mask = _subset_mask(n, elems)
    if any(a == b for a, b in zip(elems, elems[1:])):
        raise ValueError(f"repeated element in {tuple(elems)!r}")
    return _composition_of_mask(n, mask)


def compositions(n: int) -> Iterator[Composition]:
    """All 2^(n-1) compositions of n, ordered by their descent subsets.

    >>> list(compositions(3))
    [(3,), (1, 2), (2, 1), (1, 1, 1)]
    """
    _check_count("n", n)
    bits = tuple(1 << i for i in range(n - 1))
    return (_composition_of_mask(n, sum(s)) for s in subsets(bits))


def odd_compositions(n: int) -> Iterator[Composition]:
    """All compositions of n with every part odd, in the order of ``compositions``.

    That order is by number of parts, then lexicographic.  The odd parts
    2b_1+1, ..., 2b_k+1 of n correspond to the k-part weak compositions b
    of (n-k)/2, and placing k-1 bars among (n-k)/2 + k-1 slots yields those
    in lexicographic order, so only the results are built.

    >>> list(odd_compositions(5))
    [(5,), (1, 1, 3), (1, 3, 1), (3, 1, 1), (1, 1, 1, 1, 1)]
    """
    _check_count("n", n)
    if not n:
        return iter([()])

    def with_parts(k: int) -> Iterator[Composition]:
        slots = (n - k) // 2 + k - 1
        for bars in itertools.combinations(range(slots), k - 1):
            yield tuple(2 * (b - a) - 1 for a, b in zip((-1, *bars), (*bars, slots)))

    return itertools.chain.from_iterable(map(with_parts, range(2 - n % 2, n + 1, 2)))


# ---------------------------------------------------------------------------
# odd compositions <-> peak-lacunar subsets


def odd_part_refinement(alpha: Iterable[int]) -> Composition:
    """Replace each odd part 2i+1 by i twos followed by a one.

    >>> odd_part_refinement((1, 1, 3, 3, 1))
    (1, 1, 2, 1, 2, 1, 1)
    """
    parts = check_composition(alpha)
    out: list[int] = []
    for a in parts:
        if a % 2 == 0:
            raise ValueError(f"all parts must be odd, got {parts!r}")
        out.extend([2] * (a // 2))
        out.append(1)
    return tuple(out)


def peak_set_of_composition(alpha: Iterable[int]) -> Subset:
    """Peak set of an odd composition, via its refinement into twos and ones.

    The peaks are the partial sums of the refinement taken at each part
    equal to 2; the result is peak-lacunar in [n-1].

    >>> peak_set_of_composition((1, 1, 3, 3, 1))
    (4, 7)
    >>> peak_set_of_composition((3,))
    (2,)
    """
    refined = odd_part_refinement(alpha)
    return tuple(t for part, t in zip(refined, itertools.accumulate(refined)) if part == 2)


def _peaks_of_code(code: int) -> int:
    """The peak mask of the odd composition with this code."""
    return (code ^ (1 << code.bit_length()) - 1) // 3 << 1


def _code_of_peaks(n: int, peaks: int) -> int:
    """The code of the odd composition of n with this peak mask, unchecked."""
    return (1 << n) - 1 ^ (peaks >> 1) * 3


def _is_odd_code(code: int) -> bool:
    """True iff every part of the composition with this code is odd: its
    non-descents are three times a mask with no two adjacent bits."""
    half, rest = divmod(code ^ (1 << code.bit_length()) - 1, 3)
    return not rest and not half & half >> 1


def _odd_composition_of_mask(n: int, mask: int) -> Composition:
    """The odd composition of n with peak mask ``mask``, unchecked."""
    return _composition_of_code(_code_of_peaks(n, mask))


def odd_composition_of_peak_set(n: int, s: Iterable[int]) -> Composition:
    """The unique odd composition of n whose peak set is ``s``.

    Inverse of :func:`peak_set_of_composition`.

    >>> odd_composition_of_peak_set(9, (4, 7))
    (1, 1, 3, 3, 1)
    >>> odd_composition_of_peak_set(3, (2,))
    (3,)
    """
    _check_count("n", n)
    elems = _index_set(s)
    if not is_peak_lacunar(elems):
        raise ValueError(f"{tuple(elems)!r} is not peak-lacunar")
    return _odd_composition_of_mask(n, _subset_mask(n, elems))


# ---------------------------------------------------------------------------
# permutation statistics


def descent_set_of_permutation(pi: Iterable[int]) -> Subset:
    """Positions i with pi(i) > pi(i+1).

    >>> descent_set_of_permutation((1, 4, 2, 5, 3))
    (2, 4)
    """
    word = check_permutation(pi)
    return tuple(i for i in range(1, len(word)) if word[i - 1] > word[i])


def peak_set_of_permutation(pi: Iterable[int]) -> Subset:
    """Interior positions i with pi(i-1) < pi(i) > pi(i+1); always peak-lacunar.

    >>> peak_set_of_permutation((1, 3, 2))
    (2,)
    >>> peak_set_of_permutation((1, 4, 2, 5, 3))
    (2, 4)
    """
    word = check_permutation(pi)
    return tuple(
        i for i in range(2, len(word)) if word[i - 2] < word[i - 1] > word[i]
    )


# ---------------------------------------------------------------------------
# shuffles and coshuffles


def shuffles(pi: Iterable[int], sigma: Iterable[int]) -> list[Permutation]:
    """All interleavings of pi and the shifted word n+sigma, as permutations.

    The result has C(n+m, n) entries, pairwise distinct as words, ordered by
    the positions chosen for the shifted letters.

    >>> shuffles((1, 2), (1,))
    [(3, 1, 2), (1, 3, 2), (1, 2, 3)]
    """
    left = check_permutation(pi)
    right = check_permutation(sigma)
    n = len(left)
    shifted = tuple(n + x for x in right)
    return [word for word, _ in _interleavings(left, shifted)]


class CoshufflePair(NamedTuple):
    """A simultaneous shuffle of two permutation words and their weights."""

    perm: Permutation
    comp: Composition
    right_positions: Subset  # 1-based positions of the second word's entries


def coshuffles(
    pi: Iterable[int],
    alpha: Iterable[int],
    sigma: Iterable[int],
    beta: Iterable[int],
) -> list[CoshufflePair]:
    """Shuffle (pi, alpha) with (sigma, beta) using the same interleaving.

    For each of the C(n+m, n) interleaving patterns the permutation letters
    of pi and n+sigma and the parts of alpha and beta are placed in the same
    slots; ``right_positions`` records where beta's parts land.

    >>> coshuffles((1, 2), (2, 2), (1,), (1,))[1]
    CoshufflePair(perm=(1, 3, 2), comp=(2, 1, 2), right_positions=(2,))
    """
    left_word = check_permutation(pi)
    right_word = check_permutation(sigma)
    left_parts = check_composition(alpha)
    right_parts = check_composition(beta)
    if len(left_word) != len(left_parts) or len(right_word) != len(right_parts):
        raise ValueError("each composition must have one part per permutation letter")
    n = len(left_word)
    shifted = tuple(n + x for x in right_word)
    out = []
    for word, positions in _interleavings(left_word, shifted):
        comp = _interleave_values(left_parts, right_parts, positions)
        out.append(CoshufflePair(word, comp, positions))
    return out


def _interleavings(left: tuple, right: tuple):
    """Yield (merged word, 1-based positions of right's letters)."""
    total = len(left) + len(right)
    for positions in itertools.combinations(range(1, total + 1), len(right)):
        yield _interleave_values(left, right, positions), positions


def _interleave_values(left: tuple, right: tuple, positions: Sequence[int]) -> tuple:
    """left with right's items inserted at the ascending 1-based positions."""
    word = list(left)
    for k, value in zip(positions, right):
        word.insert(k - 1, value)
    return tuple(word)


def quasi_shuffles(alpha: Composition, beta: Composition) -> Iterator[Composition]:
    """All quasi-shuffles of two compositions, one per interleaving pattern.

    Adjacent parts coming one from each composition may merge by addition,
    so the same composition can be yielded several times.

    >>> sorted(quasi_shuffles((1,), (1,)))
    [(1, 1), (1, 1), (2,)]
    """
    if not alpha:
        yield beta
        return
    if not beta:
        yield alpha
        return
    for tail in quasi_shuffles(alpha[1:], beta):
        yield (alpha[0],) + tail
    for tail in quasi_shuffles(alpha, beta[1:]):
        yield (beta[0],) + tail
    for tail in quasi_shuffles(alpha[1:], beta[1:]):
        yield (alpha[0] + beta[0],) + tail


# ---------------------------------------------------------------------------
# contraction and the antipode index maps


def contract(alpha: Iterable[int], i: int) -> Composition:
    """Merge the parts at positions i-1, i, i+1 (1-based) into their sum.

    >>> contract((2, 1, 4, 3, 2), 3)
    (2, 8, 2)
    """
    parts = check_composition(alpha)
    if not 2 <= i <= len(parts) - 1:
        raise ValueError(f"index {i} not in [2, {len(parts) - 1}]")
    return _contracted(parts, (i,))


def _contracted(parts: Composition, indices: Sequence[int]) -> Composition:
    """Merge parts i-1, i, i+1 at each index, largest first, unchecked: the
    indices must ascend, be peak-lacunar and lie in [2, len(parts) - 1]."""
    for i in reversed(indices):
        parts = parts[: i - 2] + (parts[i - 2] + parts[i - 1] + parts[i],) + parts[i + 1 :]
    return parts


def contract_set(alpha: Iterable[int], indices: Iterable[int]) -> Composition:
    """Apply :func:`contract` at a peak-lacunar index set, largest index first.

    Because no two indices are consecutive, every index is still a valid
    interior position at its turn; the size is preserved and the length
    drops by two per index.

    >>> contract_set((2, 1, 4, 3, 2), (2, 4))
    (12,)
    >>> contract_set((2, 1, 4, 3, 2), ())
    (2, 1, 4, 3, 2)
    """
    parts = check_composition(alpha)
    elems = _index_set(indices)
    if not is_peak_lacunar(elems):
        raise ValueError(f"{tuple(elems)!r} is not peak-lacunar")
    for i in reversed(elems):
        if not 2 <= i <= len(parts) - 1:
            raise ValueError(f"index {i} not in [2, {len(parts) - 1}]")
    return _contracted(parts, elems)


def reverse(alpha: Iterable[int]) -> Composition:
    """The parts in reverse order."""
    return tuple(reversed(check_composition(alpha)))


def complement(alpha: Iterable[int]) -> Composition:
    """The composition whose descent set complements that of the reversal.

    This is the index map of the antipode on the fundamental basis:
    Des(complement(alpha)) = [n-1] \\ Des(reverse(alpha)).

    >>> complement((2, 1))
    (2, 1)
    >>> complement((4,))
    (1, 1, 1, 1)
    """
    parts = check_composition(alpha)
    if not parts:
        raise ValueError("the empty composition has no complement")
    n = sum(parts)
    return _composition_of_mask(n, ~_descent_mask(parts[::-1]) & ((1 << n - 1) - 1))
