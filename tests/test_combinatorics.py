"""Compositions, statistics, bijections, shuffles, contraction."""

import hashlib
import itertools
import math

import pytest

from qsym.combinatorics import (
    _code,
    _code_of_peaks,
    _composition_of_code,
    _is_odd_code,
    _odd_composition_of_mask,
    _peaks_of_code,
    _reversed_code,
    check_composition,
    complement,
    composition_of_subset,
    compositions,
    contract,
    contract_set,
    coshuffles,
    descent_set,
    descent_set_of_permutation,
    identity_permutation,
    is_peak_lacunar,
    odd_composition_of_peak_set,
    odd_compositions,
    odd_part_refinement,
    peak_set_of_composition,
    peak_set_of_permutation,
    quasi_shuffles,
    reverse,
    reversed_identity,
    shuffles,
    subsets,
)


def test_descent_set():
    assert descent_set((1, 1, 3, 3, 1)) == (1, 2, 5, 8)
    assert descent_set((7,)) == ()
    assert descent_set((2, 1)) == (2,)
    assert descent_set(()) == ()


def test_composition_of_subset():
    assert composition_of_subset(9, (1, 2, 5, 8)) == (1, 1, 3, 3, 1)
    assert composition_of_subset(5, ()) == (5,)
    assert composition_of_subset(3, (1, 2)) == (1, 1, 1)
    assert composition_of_subset(0, ()) == ()
    with pytest.raises(ValueError):
        composition_of_subset(3, (3,))
    with pytest.raises(ValueError):
        composition_of_subset(3, (0,))


# True and 2.0 compare equal to 1 and 2, so a range check alone passes them;
# each index-set helper refuses them as check_composition does.
_NOT_INTS = (True, False, 2.0)


@pytest.mark.parametrize("bad", _NOT_INTS)
def test_composition_of_subset_refuses_non_ints(bad):
    with pytest.raises(ValueError, match="index sets hold ints"):
        composition_of_subset(3, (bad,))
    with pytest.raises(ValueError, match="n must be an int"):
        composition_of_subset(bad, ())


@pytest.mark.parametrize("bad", _NOT_INTS)
def test_compositions_refuses_non_int_sizes(bad):
    with pytest.raises(ValueError, match="n must be an int"):
        compositions(bad)
    with pytest.raises(ValueError, match="n must be nonnegative"):
        compositions(-1)


@pytest.mark.parametrize("bad", _NOT_INTS)
def test_odd_compositions_refuses_non_int_sizes(bad):
    with pytest.raises(ValueError, match="n must be an int"):
        odd_compositions(bad)


@pytest.mark.parametrize("bad", _NOT_INTS)
def test_odd_composition_of_peak_set_refuses_non_ints(bad):
    with pytest.raises(ValueError, match="index sets hold ints"):
        odd_composition_of_peak_set(5, (2, bad))
    with pytest.raises(ValueError, match="n must be an int"):
        odd_composition_of_peak_set(bad, ())


@pytest.mark.parametrize("bad", _NOT_INTS)
def test_contract_set_refuses_non_ints(bad):
    with pytest.raises(ValueError, match="index sets hold ints"):
        contract_set((2, 1, 4, 3, 2), (bad,))


def test_subsets_is_generic_over_its_items():
    assert list(subsets((True, "b"))) == [(), (True,), ("b",), (True, "b")]


@pytest.mark.parametrize("n", range(9))
def test_descent_round_trip(n):
    seen = set()
    for alpha in compositions(n):
        assert sum(alpha) == n
        s = descent_set(alpha)
        assert composition_of_subset(n, s) == alpha
        seen.add(alpha)
    assert len(seen) == (2 ** (n - 1) if n else 1)
    for s in subsets(tuple(range(1, n))):
        assert descent_set(composition_of_subset(n, s)) == s


def test_odd_part_refinement():
    assert odd_part_refinement((1, 1, 3, 3, 1)) == (1, 1, 2, 1, 2, 1, 1)
    assert odd_part_refinement((5,)) == (2, 2, 1)
    with pytest.raises(ValueError):
        odd_part_refinement((2, 1))


def test_peak_set_of_composition():
    assert peak_set_of_composition((1, 1, 3, 3, 1)) == (4, 7)
    assert peak_set_of_composition((1,) * 6) == ()
    assert peak_set_of_composition((3,)) == (2,)
    # (2,) is the unique nonempty peak-lacunar subset of [2]
    assert [s for s in subsets((1, 2)) if s and is_peak_lacunar(s)] == [(2,)]


def test_odd_composition_of_peak_set():
    assert odd_composition_of_peak_set(9, (4, 7)) == (1, 1, 3, 3, 1)
    assert odd_composition_of_peak_set(5, ()) == (1, 1, 1, 1, 1)
    assert odd_composition_of_peak_set(3, (2,)) == (3,)
    with pytest.raises(ValueError):
        odd_composition_of_peak_set(5, (2, 3))
    with pytest.raises(ValueError):
        odd_composition_of_peak_set(5, (1,))
    with pytest.raises(ValueError, match="n must be nonnegative"):
        odd_composition_of_peak_set(-3, ())


def _fibonacci(k):
    a, b = 1, 1
    for _ in range(k):
        a, b = b, a + b
    return a


@pytest.mark.parametrize("n", range(10))
def test_peak_round_trip_and_count(n):
    odd = list(odd_compositions(n))
    for alpha in odd:
        assert odd_composition_of_peak_set(n, peak_set_of_composition(alpha)) == alpha
    lacunar = [s for s in subsets(tuple(range(1, n))) if is_peak_lacunar(s)]
    assert len(odd) == len(lacunar)
    if n >= 1:
        # compositions of n into odd parts are Fibonacci-counted
        assert len(odd) == _fibonacci(n - 1)
    for s in lacunar:
        assert peak_set_of_composition(odd_composition_of_peak_set(n, s)) == s


def test_peak_mask_decodes_through_the_descent_identity():
    """The peaks of a part a after position s are s+2, ..., s+a-1, and q is
    a descent exactly when neither q nor q+1 is a peak."""
    for n in range(16):
        for alpha in odd_compositions(n):
            mask = _peaks_of_code(_code(alpha))
            assert _odd_composition_of_mask(n, mask) == alpha
            bits = tuple(p for p in range(1, n) if mask >> (p - 1) & 1)
            assert bits == peak_set_of_composition(alpha)


def test_every_composition_round_trips_through_its_code():
    seen = set()
    for n in range(13):
        comps = list(compositions(n))
        for alpha in comps:
            code = _code(alpha)
            assert _composition_of_code(code) == alpha
            assert code.bit_length() == n
        codes = {_code(alpha) for alpha in comps}
        # distinct compositions, distinct codes: those of n fill [2^(n-1), 2^n)
        assert len(codes) == len(comps)
        assert codes == set(range(1 << n >> 1, 1 << n)) if n else codes == {0}
        seen |= codes
    assert _code(()) == 0 and _composition_of_code(0) == ()
    assert len(seen) == sum(1 << n >> 1 for n in range(13)) + 1


@pytest.mark.parametrize("bad", [True, 2.0, 0, -1, "1"])
def test_code_refuses_as_check_composition_refuses(bad):
    for parts in ((bad,), (2, bad, 1)):
        message = f"composition parts must be positive integers, got {parts!r}"
        for refuse in (_code, check_composition):
            with pytest.raises(ValueError) as info:
                refuse(parts)
            assert str(info.value) == message


def test_code_accepts_an_int_subclass_that_is_not_bool():
    class Part(int):
        pass

    parts = (Part(2), 1, Part(3))
    assert check_composition(parts) == parts
    assert _code(parts) == _code((2, 1, 3)) == 0b100110


def test_every_odd_composition_round_trips_through_its_peak_mask():
    """The non-descents of an odd composition are 3 * (P >> 1) for its peak mask P."""
    for n in range(14):
        odd = set(odd_compositions(n))
        for alpha in compositions(n):
            code = _code(alpha)
            assert _is_odd_code(code) == (alpha in odd)
            if alpha in odd:
                peaks = _peaks_of_code(code)
                assert _code_of_peaks(n, peaks) == code
                assert peaks == sum(1 << p - 1 for p in peak_set_of_composition(alpha))


def test_reversed_code_reverses_the_composition():
    for n in range(13):
        for alpha in compositions(n):
            assert _reversed_code(_code(alpha)) == _code(alpha[::-1])
    # codes of 17 to 40 bits cross byte boundaries
    for n in range(17, 41):
        for alpha in ((1,) * n, (n,), (1, n - 2, 1), (3, 1, n - 7, 2, 1), (n - 9, 9)):
            assert _reversed_code(_code(alpha)) == _code(alpha[::-1])


def test_compositions_keep_their_order():
    # sha256 of the lists for n = 0..10, one repr per line, as the tuple
    # decoder listed them before compositions decoded descent masks
    listed = "\n".join(repr(list(compositions(n))) for n in range(11))
    assert hashlib.sha256(listed.encode()).hexdigest() == (
        "b5fcdd89534e6ba9638da9e7b1086f781463e5d4ae30ecfd0fd138b81d309695"
    )


def test_odd_compositions_keep_their_order():
    # sha256 of the lists for n = 0..14, one repr per line, as they were
    # listed when odd_compositions filtered compositions(n)
    listed = "\n".join(repr(list(odd_compositions(n))) for n in range(15))
    assert hashlib.sha256(listed.encode()).hexdigest() == (
        "edc5d0a3bb2a04bc39185abe1656157844e819648e53877d6d2dfdaa14a3d070"
    )
    for n in range(11):
        odd = [alpha for alpha in compositions(n) if all(a % 2 for a in alpha)]
        assert list(odd_compositions(n)) == odd


@pytest.mark.parametrize(
    "n, s, message",
    [
        (5, (2, 3), "(2, 3) is not peak-lacunar"),
        (5, (1,), "(1,) is not peak-lacunar"),
        (6, (4, 3, 6), "(3, 4, 6) is not peak-lacunar"),
        (5, (2, 5), "subset (2, 5) not contained in [1, 4]"),
        (3, (0,), "subset (0,) not contained in [1, 2]"),
        (0, (2,), "subset (2,) not contained in [1, -1]"),
    ],
)
def test_odd_composition_of_peak_set_refusals(n, s, message):
    with pytest.raises(ValueError) as info:
        odd_composition_of_peak_set(n, s)
    assert str(info.value) == message


def test_permutation_statistics():
    assert descent_set_of_permutation((1, 4, 2, 5, 3)) == (2, 4)
    assert descent_set_of_permutation(identity_permutation(5)) == ()
    assert descent_set_of_permutation(reversed_identity(4)) == (1, 2, 3)
    assert peak_set_of_permutation((1, 3, 2)) == (2,)
    assert peak_set_of_permutation(identity_permutation(6)) == ()
    assert peak_set_of_permutation((1, 4, 2, 5, 3)) == (2, 4)
    with pytest.raises(ValueError):
        descent_set_of_permutation((1, 1, 2))


@pytest.mark.parametrize("n", range(8))
def test_peak_sets_are_peak_lacunar(n):
    for word in itertools.permutations(range(1, n + 1)):
        assert is_peak_lacunar(peak_set_of_permutation(word))


def test_shuffles():
    assert sorted(shuffles((1,), (1,))) == [(1, 2), (2, 1)]
    assert sorted(shuffles((1, 2), (1,))) == [(1, 2, 3), (1, 3, 2), (3, 1, 2)]
    assert len(shuffles((1, 2, 3), (2, 1))) == 10
    assert shuffles((), (2, 1)) == [(2, 1)]


def _is_subword(word, sub):
    it = iter(word)
    return all(x in it for x in sub)


@pytest.mark.parametrize("n,m", [(1, 1), (2, 2), (3, 2), (2, 3), (0, 3)])
def test_shuffle_counts_and_subwords(n, m):
    for pi in itertools.permutations(range(1, n + 1)):
        for sigma in itertools.permutations(range(1, m + 1)):
            out = shuffles(pi, sigma)
            assert len(out) == math.comb(n + m, n)
            assert len(set(out)) == len(out)
            shifted = tuple(n + x for x in sigma)
            for word in out:
                assert _is_subword(word, pi)
                assert _is_subword(word, shifted)


def test_coshuffles():
    pairs = coshuffles((1, 2), (2, 2), (1,), (1,))
    assert ((1, 3, 2), (2, 1, 2)) in [(p.perm, p.comp) for p in pairs]
    assert coshuffles((1,), (4,), (), ())[0].perm == (1,)
    assert coshuffles((1,), (4,), (), ())[0].comp == (4,)
    two = coshuffles((1,), (1,), (1,), (2,))
    assert {(p.perm, p.comp, p.right_positions) for p in two} == {
        ((1, 2), (1, 2), (2,)),
        ((2, 1), (2, 1), (1,)),
    }
    with pytest.raises(ValueError):
        coshuffles((1, 2), (1,), (1,), (1,))


def test_quasi_shuffles():
    assert sorted(quasi_shuffles((1,), (1,))) == [(1, 1), (1, 1), (2,)]
    assert sorted(quasi_shuffles((1,), (2,))) == [(1, 2), (2, 1), (3,)]
    assert list(quasi_shuffles((), (2, 1))) == [(2, 1)]


def test_contract():
    assert contract((2, 1, 4, 3, 2), 3) == (2, 8, 2)
    assert contract((5, 1, 3), 2) == (9,)
    with pytest.raises(ValueError):
        contract((2, 1, 4, 3, 2), 1)
    with pytest.raises(ValueError):
        contract((2, 1, 4, 3, 2), 5)


@pytest.mark.parametrize("bad", (*_NOT_INTS, 3.0))
def test_contract_refuses_non_ints_as_contract_set_does(bad):
    with pytest.raises(ValueError, match="index sets hold ints"):
        contract((2, 1, 4, 3, 2), bad)


def test_contract_set():
    assert contract_set((2, 1, 4, 3, 2), (2, 4)) == (12,)
    assert contract_set((2, 1, 4, 3, 2), ()) == (2, 1, 4, 3, 2)
    assert contract_set((2, 1, 4, 3, 2), (3,)) == (2, 8, 2)
    with pytest.raises(ValueError):
        contract_set((2, 1, 4, 3, 2), (2, 3))
    with pytest.raises(ValueError):
        contract_set((1, 2, 3), (1,))
    for outside in ((0,), (-2, 4), (2, 5)):
        with pytest.raises(ValueError, match="not in"):
            contract_set((2, 1, 4, 3, 2), outside)


@pytest.mark.parametrize("n", range(1, 8))
def test_contract_set_preserves_size(n):
    for alpha in compositions(n):
        interior = [i for i in range(2, len(alpha))]
        for chosen in subsets(tuple(interior)):
            if not is_peak_lacunar(chosen):
                continue
            out = contract_set(alpha, chosen)
            assert sum(out) == n
            assert len(out) == len(alpha) - 2 * len(chosen)


def test_reverse():
    assert reverse((1, 3, 1)) == (1, 3, 1)
    assert reverse((2, 5)) == (5, 2)
    assert reverse(()) == ()


def test_complement():
    assert complement((2, 1)) == (2, 1)
    assert complement((5,)) == (1, 1, 1, 1, 1)
    assert complement((1, 1, 1, 1)) == (4,)
    with pytest.raises(ValueError):
        complement(())


@pytest.mark.parametrize("n", range(1, 8))
def test_complement_descents(n):
    full = set(range(1, n))
    for alpha in compositions(n):
        want = full - set(descent_set(reverse(alpha)))
        assert set(descent_set(complement(alpha))) == want
        # an involution: reversing twice and complementing twice cancel
        assert complement(complement(alpha)) == alpha
