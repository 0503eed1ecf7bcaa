"""Posets, enriched assignments, generating functions, splits."""

import itertools
import math
import random
import time
import tracemalloc
from fractions import Fraction

import pytest

from qsym import cli, combinatorics, ppartitions, verification
from qsym.combinatorics import (
    _code,
    composition_of_subset,
    contract_set,
    descent_set_of_permutation,
    odd_composition_of_peak_set,
    peak_set_of_permutation,
    shuffles,
    subsets,
)
from qsym.core import QSymElement, convert
from qsym.expansion import TruncatedPoly, expand, poly_add, poly_mul
from qsym.ppartitions import (
    LabelledWeightedPoset,
    chain_poset,
    coshuffle_product,
    enumerate_assignments,
    gamma,
    is_enriched_partition,
    positive_alphabet,
    signed_alphabet,
    signed_order_key,
    split_incomparable,
    universal_gamma,
    universal_to_eta,
    weighted_chain,
)
from qsym.expansion import _m_monomials
from qsym.ppartitions import _chain_m_terms, _gamma_chain


def test_signed_order():
    values = [3, -1, 2, -3, 1, -2]
    assert sorted(values, key=signed_order_key) == [-1, 1, -2, 2, -3, 3]
    with pytest.raises(ValueError):
        signed_order_key(0)


def test_alphabets():
    assert positive_alphabet(3) == (1, 2, 3)
    assert signed_alphabet(2) == (-1, 1, -2, 2)
    assert signed_alphabet(0) == ()


def test_poset_construction():
    p = LabelledWeightedPoset(3, [(1, 2), (2, 3)])
    assert p.less(1, 3)  # closure
    assert not p.less(3, 1)
    assert p.covers() == [(1, 2), (2, 3)]
    assert p.weights == (1, 1, 1)
    with pytest.raises(ValueError):
        LabelledWeightedPoset(2, [(1, 2), (2, 1)])
    with pytest.raises(ValueError):
        LabelledWeightedPoset(2, [(1, 1)])
    with pytest.raises(ValueError):
        LabelledWeightedPoset(2, [(1, 3)])
    with pytest.raises(ValueError):
        LabelledWeightedPoset(2, weights=(1, 0))
    with pytest.raises(ValueError, match="nonnegative int, got True"):
        LabelledWeightedPoset(True)
    with pytest.raises(ValueError, match=r"relation \(1.0, 2\) outside labels 1..2"):
        LabelledWeightedPoset(2, [(1.0, 2)])


def test_poset_json_round_trip():
    p = LabelledWeightedPoset(4, [(1, 2), (2, 4), (3, 4)], (2, 1, 1, 3))
    data = p.to_json_dict()
    assert data == {"n": 4, "covers": [[1, 2], [2, 4], [3, 4]], "weights": [2, 1, 1, 3]}
    assert LabelledWeightedPoset.from_json_dict(data) == p


@pytest.mark.parametrize(
    "data, field",
    [
        ({"covers": [[1, 2]]}, "'n'"),
        ([[1, 2]], "JSON object"),
        ({"n": 2, "covers": [1]}, "'covers'"),
        ({"n": "2"}, "'n'"),
        ({"n": 3, "covers": [[1, 2, 3]]}, "'covers'"),
        ({"n": 2, "covers": [["1", 2]]}, "'covers'"),
        ({"n": 2, "weights": 5}, "'weights'"),
        ({"n": 10**8}, "'n' must be at most 1000000"),
    ],
)
def test_poset_json_rejects_malformed_fields(data, field):
    with pytest.raises(ValueError, match=field):
        LabelledWeightedPoset.from_json_dict(data)


def test_poset_json_vertex_limit_is_inclusive(monkeypatch):
    monkeypatch.setattr(ppartitions, "_FILE_VERTEX_LIMIT", 5)
    assert LabelledWeightedPoset.from_json_dict({"n": 5}) == LabelledWeightedPoset(5)
    with pytest.raises(ValueError, match="poset field 'n' must be at most 5, got 6"):
        LabelledWeightedPoset.from_json_dict({"n": 6})


def test_closure_budget_is_inclusive_and_names_the_count(monkeypatch):
    """A chain of n holds n(n-1)/2 predecessor bits: 10 at n = 5, within a
    budget of 10; at n = 6 the sixth vertex closes at 15 and is refused."""
    monkeypatch.setattr(ppartitions, "_CLOSURE_BUDGET", 10)
    assert chain_poset(range(1, 6)).chain_order() == (1, 2, 3, 4, 5)
    fan = LabelledWeightedPoset(11, [(1, j) for j in range(2, 12)])  # one bit per vertex
    assert fan.covers() == [(1, j) for j in range(2, 12)]
    message = "the closed order needs at least 15 predecessor bits, over the budget of 10"
    with pytest.raises(ValueError, match=message):
        chain_poset(range(1, 7))
    with pytest.raises(ValueError, match=message):
        LabelledWeightedPoset.from_json_dict({"n": 6, "covers": [[i, i + 1] for i in range(1, 6)]})


def test_chain_poset():
    p = chain_poset((1, 2))
    assert p.less(1, 2) and not p.less(2, 1)
    p = chain_poset((2, 1))
    assert p.less(2, 1)
    p = chain_poset((1, 3, 2))
    assert p.less(1, 3) and p.less(3, 2) and p.less(1, 2)
    assert p.chain_order() == (1, 3, 2)
    assert chain_poset(()).n == 0


def test_weighted_chain():
    p = weighted_chain((1, 2), (2, 2))
    assert p.weights == (2, 2)
    p = weighted_chain((2, 1), (3, 1))
    assert p.weight(2) == 3 and p.weight(1) == 1
    p = weighted_chain((1,), (5,))
    assert p.weights == (5,)
    with pytest.raises(ValueError):
        weighted_chain((1, 2), (1,))


def _closed_chain(word, weights):
    """The chain of word through the general constructor, with its closure."""
    pairs = [(a, b) for i, a in enumerate(word) for b in word[i + 1:]]
    return LabelledWeightedPoset(len(word), pairs, weights)


def _assert_same_poset(fast, slow):
    assert fast == slow and hash(fast) == hash(slow)
    assert fast.relations == slow.relations
    assert fast.covers() == slow.covers()
    assert fast.chain_order() == slow.chain_order()


@pytest.mark.parametrize("n", range(7))
def test_chain_constructors_match_the_closed_poset(n):
    """Every word takes unit weights; words up to n = 4 also take every
    weighting from {1, 2, 3}, longer words three seeded ones."""
    rng = random.Random(n)
    every = list(itertools.product((1, 2, 3), repeat=n))
    for word in itertools.permutations(range(1, n + 1)):
        _assert_same_poset(chain_poset(word), _closed_chain(word, None))
        for alpha in every if n <= 4 else rng.sample(every, 3):
            weights = [0] * n
            for label, w in zip(word, alpha):
                weights[label - 1] = w
            _assert_same_poset(weighted_chain(word, alpha), _closed_chain(word, weights))


@pytest.mark.parametrize(
    "word", [(1, 1), (0, 1), (2, 3), (1, 2, 4), (2,), (True, 2), (2, 1.0)]
)
def test_chain_constructors_reject_bad_words(word):
    with pytest.raises(ValueError, match="not a permutation"):
        chain_poset(word)
    with pytest.raises(ValueError, match="not a permutation"):
        weighted_chain(word, (1,) * len(word))


@pytest.mark.parametrize("alpha", [(1, 0), (1, -2), (1, True), (1, 1.5), (2, "1")])
def test_weighted_chain_rejects_bad_weights(alpha):
    with pytest.raises(ValueError, match="composition parts must be positive integers"):
        weighted_chain((2, 1), alpha)


def test_is_enriched_partition():
    up = chain_poset((1, 2))
    down = chain_poset((2, 1))
    assert is_enriched_partition(up, (3, 3))
    assert not is_enriched_partition(down, (3, 3))
    assert is_enriched_partition(down, (-3, -3))
    assert is_enriched_partition(up, (-1, 1))
    assert not is_enriched_partition(up, (1, -1))
    assert not is_enriched_partition(up, (-1, -1))
    with pytest.raises(ValueError):
        is_enriched_partition(up, (1,))
    for bad in (1.5, True, 0):
        with pytest.raises(ValueError, match="values must be nonzero ints"):
            is_enriched_partition(LabelledWeightedPoset(1), [bad])


@pytest.mark.parametrize("n", range(5))
def test_is_enriched_partition_checks_covers_as_every_relation_would(n):
    """Every labelled poset with n <= 4, every assignment over (-2, -1, 1, 2):
    checking the covers gives the check of every relation."""
    for poset in _every_poset(n):
        relations = poset.relations
        for values in itertools.product((-2, -1, 1, 2), repeat=n):
            want = all(
                ppartitions._respects(i, j, values[i - 1], values[j - 1]) for i, j in relations
            )
            assert is_enriched_partition(poset, values) == want, (poset, values)


def test_enumerate_assignments_small():
    single = LabelledWeightedPoset(1)
    assert len(enumerate_assignments(single, signed_alphabet(4))) == 8
    assert enumerate_assignments(chain_poset((1, 2)), (1,)) == [(1, 1)]
    assert enumerate_assignments(chain_poset((2, 1)), (1,)) == []
    assert enumerate_assignments(LabelledWeightedPoset(0), (1, -1)) == [()]


def test_enumerate_assignments_refuses_past_the_budget(monkeypatch):
    monkeypatch.setattr(ppartitions, "_ASSIGNMENT_BUDGET", 16)
    # 4 values on 2 vertices: 4^2 = 16 candidates run; 4^3 = 64 are refused unwalked
    assert len(enumerate_assignments(LabelledWeightedPoset(2), signed_alphabet(2))) == 16
    monkeypatch.setattr(ppartitions, "_assignments", None)
    with pytest.raises(ValueError, match="give 64 candidate assignments, over the budget of 16"):
        enumerate_assignments(LabelledWeightedPoset(3), signed_alphabet(2))


def _random_poset(rng, max_n=6, weighted=False):
    n = rng.randint(1, max_n)
    theta = list(range(1, n + 1))
    rng.shuffle(theta)
    relations = [
        (theta[i], theta[j])
        for i in range(n)
        for j in range(i + 1, n)
        if rng.random() < 0.35
    ]
    weights = tuple(rng.randint(1, 3) for _ in range(n)) if weighted else None
    return LabelledWeightedPoset(n, relations, weights)


def test_enumerate_matches_brute_force():
    rng = random.Random(3)
    for _ in range(25):
        poset = _random_poset(rng, max_n=4)
        zs = signed_alphabet(2)
        got = enumerate_assignments(poset, zs)
        want = sorted(
            (
                values
                for values in itertools.product(zs, repeat=poset.n)
                if is_enriched_partition(poset, values)
            ),
            key=lambda t: tuple(signed_order_key(v) for v in t),
        )
        assert got == want


def test_positive_restriction_is_plain_partition():
    # A plain P-partition weakly increases along the order, strictly when
    # the labels decrease; over the positive alphabet the enriched
    # conditions degenerate to exactly that.
    def plain_ok(poset, values):
        for i, j in poset.relations:
            if values[i - 1] > values[j - 1]:
                return False
            if i > j and values[i - 1] >= values[j - 1]:
                return False
        return True

    rng = random.Random(5)
    for _ in range(25):
        poset = _random_poset(rng, max_n=4)
        zs = positive_alphabet(3)
        got = set(enumerate_assignments(poset, zs))
        want = {
            values
            for values in itertools.product(zs, repeat=poset.n)
            if plain_ok(poset, values)
        }
        assert got == want


def test_gamma_single_vertex():
    single = LabelledWeightedPoset(1)
    p = gamma(single, positive_alphabet(4))
    assert dict(p.terms) == {((i, 1),): 1 for i in range(1, 5)}
    p = gamma(single, signed_alphabet(4))
    assert dict(p.terms) == {((i, 1),): 2 for i in range(1, 5)}
    heavy = LabelledWeightedPoset(1, weights=(3,))
    p = gamma(heavy, signed_alphabet(4))
    assert p == expand(QSymElement.term("eta", (3,)), 4, 3)


def test_gamma_degenerate_cases():
    assert dict(gamma(LabelledWeightedPoset(0), signed_alphabet(2)).terms) == {(): 1}
    assert gamma(LabelledWeightedPoset(2, [(1, 2)]), ()).is_zero
    with pytest.raises(ValueError):
        gamma(LabelledWeightedPoset(1), signed_alphabet(3), nvars=2)
    with pytest.raises(ValueError):
        gamma(LabelledWeightedPoset(1), (0, 1))
    for nvars in (-1, -3):
        with pytest.raises(ValueError, match="nonnegative"):
            gamma(LabelledWeightedPoset(2), (), nvars)
        with pytest.raises(ValueError, match="nonnegative"):
            universal_gamma((1,), (1,), (), nvars)
    for nvars in (2.0, True, "2"):
        with pytest.raises(ValueError, match=f"nvars must be an int, got {nvars!r}"):
            gamma(LabelledWeightedPoset(2), (1, 2), nvars=nvars)
        with pytest.raises(ValueError, match=f"nvars must be an int, got {nvars!r}"):
            universal_gamma((1, 2), (1, 1), (1, 2), nvars)


def _fan(k):
    """The connected fan 1 < {2, ..., k}."""
    return LabelledWeightedPoset(k, [(1, j) for j in range(2, k + 1)])


def test_gamma_computes_within_the_step_budget_and_refuses_past_it():
    # the fan 1 < {2, ..., k + 1} can grow by 3^k sets at a positive value
    # and 3^k - 2^k + 1 at a negative one; a row is built for a sign in Z
    for k in range(1, 8):
        for signs, steps in (({True, False}, 2 * 3**k - 2**k + 1), ({True}, 3**k)):
            table, spent = ppartitions._steps(_fan(k + 1), signs, 0)
            assert spent == steps == sum(len(row) for rows in table.values() for row in rows)
    # over {-1, 1}: 352,247 steps at k = 11 and 1,058,787 at k = 12, either
    # side of 10^6; the count runs over every component, so three fans of
    # 12 are refused where one and two compute
    assert ppartitions._STEP_BUDGET == 10**6
    assert dict(gamma(_fan(12), (-1, 1)).terms) == {((1, 12),): 2}
    assert dict(gamma(_disjoint_union(_fan(12), _fan(12)), (-1, 1)).terms) == {((1, 24),): 4}
    for poset in (_fan(13), _disjoint_union(_disjoint_union(_fan(12), _fan(12)), _fan(12))):
        with pytest.raises(ValueError, match="takes more than 1000000 steps"):
            gamma(poset, (-1, 1))


def test_gamma_refuses_before_any_polynomial_work(monkeypatch):
    def work(*args):
        raise AssertionError("polynomial work before the refusal")

    with monkeypatch.context() as patch:
        for name in ("_gamma_chain", "_walk"):
            patch.setattr(ppartitions, name, work)
        # a chain component first, then the fan 1 < {2, ..., 40}: 2^39 + 1 ideals
        with pytest.raises(ValueError, match="takes more than 1000000 steps"):
            gamma(_disjoint_union(chain_poset((2, 1, 3)), _fan(40)), (1,))
        # Z's magnitudes carry different sign sets, so a chain is walked
        # too: the chain 1 < ... < 150 has 150 * 153 / 2 steps over (-1, 2)
        patch.setattr(ppartitions, "_STEP_BUDGET", 10**4)
        with pytest.raises(ValueError, match="takes more than 10000 steps"):
            gamma(_disjoint_union(_fan(3), chain_poset(range(1, 151))), (-1, 2))
        # a step on a component of n vertices is charged its mask's 1 + n // 64
        # words: from {1}, the fan 1 < {2, ..., 40000} has 39,999 steps of 626
        patch.setattr(ppartitions, "_STEP_BUDGET", 10**6)
        with pytest.raises(ValueError, match="takes more than 1000000 steps"):
            gamma(_fan(40000), (1,))
    # an antichain is one-vertex chains, however wide
    assert dict(gamma(LabelledWeightedPoset(30), (1,)).terms) == {((1, 30),): 1}
    # chains of 4 and 5 side by side: 9 vertices, C(9, 4) = 126 extensions
    two_chains = _disjoint_union(chain_poset((2, 1, 3, 4)), chain_poset((1, 3, 2, 5, 4)))
    assert two_chains.n == 9
    assert sum(1 for _ in two_chains.linear_extensions()) == 126
    zs = signed_alphabet(2)
    assert gamma(two_chains, zs) == _assignment_sum(two_chains, zs, 2)


def test_a_refusal_is_sized_from_the_free_vertices_in_constant_memory(monkeypatch):
    # from the ideal {1}, the fan 1 < {2, ..., 40} can grow by each of the
    # 2^39 - 1 nonempty subsets of its 39 free vertices: refused at that pop,
    # with no table built
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="takes more than 1000000 steps"):
            gamma(_fan(40), (1,))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    # the sizing only refuses what the count would: a budget of exactly the
    # steps still computes, one step less refuses
    for k in range(1, 8):
        for signs, steps in (({True, False}, 2 * 3**k - 2**k + 1), ({True}, 3**k)):
            monkeypatch.setattr(ppartitions, "_STEP_BUDGET", steps)
            assert ppartitions._steps(_fan(k + 1), signs, 0)[1] == steps
            monkeypatch.setattr(ppartitions, "_STEP_BUDGET", steps - 1)
            with pytest.raises(ValueError, match=f"takes more than {steps - 1} steps"):
                ppartitions._steps(_fan(k + 1), signs, 0)


def test_universal_gamma_walks_a_chain_over_a_mixed_alphabet_within_the_budget(monkeypatch):
    # the chain 1 < ... < n over (-1, 2): n(n + 3)/2 steps in its table, each
    # charged 1 + n // 64 words, and 2n in its walk, so at 10^6 it computes
    # up to n = 498, and at 10^4 up to 97
    monkeypatch.setattr(ppartitions, "_STEP_BUDGET", 10**4)
    got = universal_gamma(range(1, 98), (1,) * 97, (-1, 2))
    assert dict(got.terms) == {((1, 1), (2, 96)): 1, ((2, 97),): 1}
    with pytest.raises(ValueError, match="takes more than 10000 steps"):
        universal_gamma(range(1, 99), (1,) * 98, (-1, 2))


def test_a_chain_is_charged_its_monomials_before_any_polynomial_work(monkeypatch):
    """A chain of n vertices over k magnitudes has at most C(n + k - 1, k - 1)
    monomials, one per weakly increasing sequence of magnitudes, and the
    increasing word over the signed alphabet has them all.  gamma charges
    that count times a packed monomial's words (one word here) before it
    builds any, and so does the chain kernel behind universal_gamma."""
    for n, k in [(1, 1), (5, 3), (8, 4), (6, 6)]:
        got = universal_gamma(range(1, n + 1), (1,) * n, signed_alphabet(k))
        assert len(got.terms) == math.comb(n + k - 1, k - 1)
        assert gamma(chain_poset(range(1, n + 1)), signed_alphabet(k)) == got
    # C(11, 3) = 165 monomials: a budget of exactly the charge computes,
    # one step less refuses
    for budget, refused in ((165, False), (164, True)):
        monkeypatch.setattr(ppartitions, "_STEP_BUDGET", budget)
        for run in (
            lambda: gamma(chain_poset(range(1, 9)), signed_alphabet(4)),
            lambda: universal_gamma(range(1, 9), (1,) * 8, signed_alphabet(4)),
        ):
            ppartitions._gamma_chain.cache_clear()  # a cached chain was charged once
            if refused:
                with pytest.raises(ValueError, match="gamma takes more than 164 steps"):
                    run()
            else:
                assert len(run().terms) == 165
    monkeypatch.setattr(ppartitions, "_STEP_BUDGET", 10**6)

    def work(*args):
        raise AssertionError("polynomial work before the refusal")

    for name in ("_chain_m_terms", "_m_monomials"):
        monkeypatch.setattr(ppartitions, name, work)
    # C(67, 7) = 869,648,208 and C(45, 5) = 1,221,759 monomials
    with pytest.raises(ValueError, match="gamma takes more than 1000000 steps"):
        gamma(chain_poset(range(1, 61)), signed_alphabet(8))
    with pytest.raises(ValueError, match="gamma takes more than 1000000 steps"):
        universal_gamma(range(1, 61), (1,) * 60, signed_alphabet(8))
    with pytest.raises(ValueError, match="gamma takes more than 1000000 steps"):
        universal_gamma(range(1, 41), (1,) * 40, signed_alphabet(6))


def test_a_chain_is_charged_exactly_the_monomials_its_pattern_allows():
    """Descents over +m, ascents over -m and peaks over both force cuts,
    and the charge counts them: it is the number of monomials of every
    chain, so a long chain with a small function is computed."""
    rng = random.Random(36)
    for _ in range(400):
        n, k = rng.randint(0, 8), rng.randint(0, 5)
        word, parts = rng.sample(range(1, n + 1), n), [rng.randint(1, 3) for _ in range(n)]
        for zs in (positive_alphabet(k), tuple(-m for m in range(1, k + 1)), signed_alphabet(k)):
            charge = ppartitions._chain_steps(n, ppartitions._ups(word), ppartitions._sign_sets(zs), 0)
            assert len(universal_gamma(word, parts, zs).terms) == charge
    # the reversed identity over the positive alphabet: M_(1^12), one monomial
    got = universal_gamma(range(12, 0, -1), (1,) * 12, positive_alphabet(12))
    assert got.terms == {tuple((m, 1) for m in range(1, 13)): 1}
    assert gamma(weighted_chain(range(12, 0, -1), (1,) * 12), positive_alphabet(12)) == got
    # 39 descents over 6 magnitudes, and 29 peaks over 8 signed ones: zero
    assert not universal_gamma(range(40, 0, -1), (1,) * 40, positive_alphabet(6)).terms
    zigzag = [v for i in range(1, 60, 2) for v in (i + 1, i)]
    assert not gamma(chain_poset(zigzag), signed_alphabet(8)).terms


def test_gamma_renames_magnitudes_instead_of_packing_them():
    """Only the order of Z's magnitudes counts: over (..., 10^7) gamma is
    its value over (..., 2) with x2 renamed, at the same cost."""
    big = 10**7
    chain = weighted_chain((2, 1, 3), (1, 2, 1))
    for poset in (LabelledWeightedPoset(2), _fan(3), chain, _disjoint_union(_fan(3), chain)):
        for small, sparse in (((1, 2), (1, big)), ((-1, 2), (-1, big)), ((-1, 1, 2), (-1, 1, big))):
            want = gamma(poset, small).terms
            got = gamma(poset, sparse)
            assert got.nvars == big and dict(got.terms) == {
                tuple((big if v == 2 else v, e) for v, e in mono): c for mono, c in want.items()
            }
    # a mixed alphabet sends universal_gamma's chain through gamma's walk
    got = universal_gamma((2, 1, 3), (1, 2, 1), (-1, big))
    assert dict(got.terms) == {((1, 3), (big, 1)): 1, ((1, 1), (big, 3)): 1}


@pytest.mark.parametrize("n", range(5))
def test_universal_gamma_equals_gamma_of_the_weighted_chain(n):
    rng = random.Random(n)
    for word in itertools.permutations(range(1, n + 1)):
        alpha = tuple(rng.randint(1, 3) for _ in word)
        for zs in ((), positive_alphabet(2), signed_alphabet(3), (-2, 1, 3)):
            for nvars in (None, 4):
                assert universal_gamma(word, alpha, zs, nvars) == gamma(
                    weighted_chain(word, alpha), zs, nvars
                )
    with pytest.raises(ValueError, match="one weight part"):
        universal_gamma((1, 2), (1,), positive_alphabet(2))
    with pytest.raises(ValueError, match="exceeds"):
        universal_gamma((1, 2), (1, 1), positive_alphabet(3), 2)


@pytest.mark.parametrize("bad", [True, 1.0, 0])
def test_universal_gamma_refuses_non_int_and_zero_entries(bad):
    # True and 1.0 equal 1, so only a check of each entry's type catches them
    with pytest.raises(ValueError, match="not a permutation"):
        universal_gamma((bad, 2), (1, 1), positive_alphabet(2))
    with pytest.raises(ValueError, match="positive integers"):
        universal_gamma((1, 2), (bad, 1), positive_alphabet(2))
    with pytest.raises(ValueError, match="nonzero ints"):
        universal_gamma((1, 2), (1, 1), (bad, 2))


@pytest.mark.parametrize("bad", [(0, 1, 2), (True, 2), (1, 2.0), (1.0, 2)])
@pytest.mark.parametrize("form", [tuple, list, iter])
def test_alphabet_memo_never_caches_a_pass(bad, form):
    # (True, 2) and (1.0, 2) equal the valid (1, 2), so an equality-keyed
    # memo that had seen (1, 2) would wave them through
    poset = chain_poset((2, 1))
    gamma(poset, (1, 2))
    for _ in range(2):
        with pytest.raises(ValueError, match="nonzero ints"):
            gamma(poset, form(bad))


def test_alphabet_forms_agree():
    for poset in (chain_poset((1, 3, 2)), LabelledWeightedPoset(3, [(1, 2)])):
        zs = [2, -1, 1, -2, 2]
        by_tuple = gamma(poset, tuple(zs))
        assert gamma(poset, zs) == by_tuple
        assert dict(gamma(poset, zs).terms) == dict(by_tuple.terms)
        assert gamma(poset, iter(zs)) == gamma(poset, signed_alphabet(2)) == by_tuple


def test_gamma_result_is_read_only():
    poset, zs = chain_poset((1, 3, 2)), signed_alphabet(2)
    first = gamma(poset, zs)
    full = dict(first.terms)
    assert full
    with pytest.raises(AttributeError):
        first.terms.clear()
    with pytest.raises(TypeError):
        first.terms[((1, 3),)] = 5
    assert dict(gamma(poset, zs).terms) == full


def _assignment_sum(poset, zs, nvars):
    """gamma by the DFS reference: one monomial per enriched assignment."""
    acc = {}
    for values in enumerate_assignments(poset, zs):
        exps = {}
        for value, w in zip(values, poset.weights):
            exps[abs(value)] = exps.get(abs(value), 0) + w
        key = tuple(sorted(exps.items()))
        acc[key] = acc.get(key, 0) + 1
    return TruncatedPoly(nvars, sum(poset.weights), acc)


def _ups(word):
    """The up-down pattern of a word: whether each neighbouring pair rises."""
    return tuple(a < b for a, b in zip(word, word[1:]))


def _chain_against_dfs(word, alpha):
    """_gamma_chain == the assignment sum at both alphabets of magnitude 3."""
    poset = weighted_chain(word, alpha)
    out = []
    for zs in (positive_alphabet(3), signed_alphabet(3)):
        fast = _gamma_chain(_ups(word), tuple(alpha), zs, 3)
        assert fast == _assignment_sum(poset, zs, 3)
        out.append(fast)
    return out


def test_gamma_chain_matches_dfs():
    rng = random.Random(9)
    for _ in range(20):
        n = rng.randint(1, 5)
        word = list(range(1, n + 1))
        rng.shuffle(word)
        _chain_against_dfs(tuple(word), tuple(rng.randint(1, 3) for _ in range(n)))
    # one block takes the whole chain at the top magnitude, so an exponent
    # equals the degree bound, for bounds on both sides of powers of two
    for degree in (1, 2, 3, 4, 7, 8, 15, 16):
        n = min(degree, 3)
        alpha = (degree - n + 1,) + (1,) * (n - 1)
        top = ((3, degree),)
        pos, sgn = _chain_against_dfs(tuple(range(1, n + 1)), alpha)
        assert pos.terms[top] > 0 and sgn.terms[top] > 0
        pos, sgn = _chain_against_dfs(tuple(range(n, 0, -1)), alpha)
        assert sgn.terms[top] > 0


@pytest.mark.parametrize(
    "zs", [(), (-1, 2), (1, -2, 2), (-3,), (2, -4, 4), (-1, 1, -3)]
)
def test_gamma_chain_matches_dfs_over_mixed_and_sparse_alphabets(zs):
    """Alphabets that skip magnitudes or give them different sign sets,
    with one variable more than the top magnitude, on every up-down pattern
    of up to 5 vertices (the empty chain included)."""
    rng = random.Random(len(zs))
    nvars = (abs(zs[-1]) if zs else 0) + 1
    for n in range(6):
        for words in _words_by_pattern(n).values():
            for _ in range(2):
                ws = tuple(rng.randint(1, 3) for _ in range(n))
                got = universal_gamma(words[0], ws, zs, nvars)
                want = _assignment_sum(weighted_chain(words[0], ws), zs, nvars)
                assert dict(got.terms) == dict(want.terms)
                assert (got.nvars, got.degree) == (nvars, sum(ws))


def test_gamma_chain_takes_one_sign_set_alphabets_only(monkeypatch):
    """A chain over a mixed alphabet is refused, not handed on to gamma;
    universal_gamma sends it to gamma itself."""
    calls = []
    monkeypatch.setattr(ppartitions, "gamma", lambda *args: calls.append(args))
    with pytest.raises(ValueError, match="different sign sets"):
        _gamma_chain((True,), (1, 1), (-1, 2), 2)
    assert not calls
    universal_gamma((1, 2), (1, 1), (-1, 2), 2)
    assert len(calls) == 1


def test_gamma_chain_is_zero_when_it_needs_more_blocks_than_magnitudes():
    # a tie at -m needs the labels to go down, and +m ... +m to go up; a
    # peak can sit inside no block, so up-down-up-down needs three blocks,
    # one more than the signed alphabet of 2 has magnitudes, and down-up
    # over only -3 needs two
    for ups, ws, zs in [
        ((True, False, True, False), (1, 2, 1, 3, 1), signed_alphabet(2)),
        ((False, True), (2, 1, 1), (-3,)),
        ((True,), (1, 1), (-2,)),
        ((False,), (3, 1), (2,)),
        ((True,), (1,) * 2, ()),
    ]:
        word = _words_by_pattern(len(ws))[ups][0]
        assert _gamma_chain(ups, ws, zs, 3).is_zero
        assert _assignment_sum(weighted_chain(word, ws), zs, 3).is_zero
    # one more magnitude, and the count is no longer zero
    assert not _gamma_chain((True, False, True, False), (1,) * 5, signed_alphabet(3), 3).is_zero


def test_chain_m_terms_written_on_monomials_are_the_chain_function():
    """_chain_m_terms' {b: c_b}, written onto the monomials of M_b over the
    magnitudes, is _gamma_chain and gamma of the weighted chain: every
    up-down pattern up to 6 vertices, weights from {1, 2}, over P_k and
    Ppm_k for k = 1..4 and over sparse alphabets."""
    alphabets = [positive_alphabet(k) for k in range(1, 5)]
    alphabets += [signed_alphabet(k) for k in range(1, 5)]
    alphabets += [(2, 5), (-1, 1, -3, 3)]
    rng = random.Random(6)
    zero = 0
    for n in range(7):
        for ups, words in _words_by_pattern(n).items():
            for ws in _weightings(n, rng):
                poset = weighted_chain(words[0], ws)
                for zs in alphabets:
                    mags, nvars = sorted({abs(z) for z in zs}), abs(zs[-1])
                    coeffs = _chain_m_terms(ups, ws, zs)
                    assert all(
                        b.bit_count() <= len(mags) and b.bit_length() == sum(ws) for b in coeffs
                    )
                    assert all(c > 0 for c in coeffs.values())
                    written = {
                        mono: c for b, c in coeffs.items() for mono in _m_monomials(b, tuple(mags))
                    }
                    assert dict(_gamma_chain(ups, ws, zs, nvars).terms) == written
                    assert dict(gamma(poset, zs, nvars).terms) == written
                    zero += not written
    # chains that need more blocks than the alphabet has magnitudes are among them
    assert zero > 0
    assert _chain_m_terms((False,), (1, 1), (1,)) == {}
    assert _chain_m_terms((), (), ()) == {0: 1}
    with pytest.raises(ValueError, match="different sign sets"):
        _chain_m_terms((True,), (1, 1), (-1, 2))


def _tuple_keyed_chain_m_terms(ups, ws, zs):
    """The reference for ``_chain_m_terms``, as it stood keyed by the tuple
    b: the same depth-first walk over cut sets, carrying each block's
    weights in a tuple."""
    if not ws:
        return {(): 1}
    signs = ppartitions._sign_sets(zs)
    kinds = set(signs.values())
    assert len(kinds) <= 1
    minus, plus, both = ppartitions._MINUS, ppartitions._PLUS, ppartitions._BOTH
    kind = kinds.pop() if kinds else 0
    kind, per_block = (both, 2) if kind == minus | plus else (kind, 1)
    n, k, acc = len(ws), len(signs), {}
    stack = [(0, ())] if k else []
    while stack:
        start, bs = stack.pop()
        killed = b = 0
        for end in range(start, n):
            if end > start:
                if ups[end - 1]:
                    killed |= minus
                else:
                    killed |= plus | (both if killed & minus else 0)
                if killed & kind:
                    break
            b += ws[end]
            if end + 1 == n:
                acc[bs + (b,)] = per_block ** (len(bs) + 1)
            elif len(bs) + 1 < k:
                stack.append((end + 1, bs + (b,)))
    return acc


@pytest.mark.parametrize("n", range(8))
def test_chain_m_terms_by_code_match_the_tuple_keyed_walk(n):
    """Every up-down pattern of n <= 7 vertices, every weighting from
    {1, 2}, over P_k and Ppm_k for k <= 4: the code-keyed walk gives the
    tuple-keyed walk's coefficients, keyed by the code of b."""
    alphabets = [positive_alphabet(k) for k in range(1, 5)]
    alphabets += [signed_alphabet(k) for k in range(1, 5)]
    for ups in itertools.product((False, True), repeat=max(n - 1, 0)):
        for ws in itertools.product((1, 2), repeat=n):
            for zs in alphabets:
                want = _tuple_keyed_chain_m_terms(ups, ws, zs)
                assert _chain_m_terms(ups, ws, zs) == {
                    _code(b): c for b, c in want.items()
                }, (ups, ws, zs)


@pytest.mark.parametrize("seed", range(3))
def test_chain_m_terms_match_the_tuple_keyed_walk_in_order_on_seeded_chains(seed):
    """Chains of up to 12 vertices over alphabets of up to 8 magnitudes,
    each carrying -m, +m or both: the walk that cuts only where its blocks
    can finish builds the reference's terms in the reference's order."""
    rng = random.Random(f"chain/{seed}")
    for _ in range(600):
        n, k = rng.randint(0, 12), rng.randint(0, 8)
        ups = tuple(rng.random() < 0.5 for _ in range(max(n - 1, 0)))
        ws = tuple(rng.choice((1, 1, 2, 3)) for _ in range(n))
        zs = rng.choice((positive_alphabet(k), signed_alphabet(k), tuple(range(-k, 0))))
        got = _chain_m_terms(ups, ws, zs)
        want = {_code(b): c for b, c in _tuple_keyed_chain_m_terms(ups, ws, zs).items()}
        assert list(got.items()) == list(want.items()), (ups, ws, zs)


def test_a_chain_whose_blocks_just_fit_returns_at_once():
    """1..22 then 44 down to 23 over P_22: the rise and each of the 21
    descents take all 22 magnitudes, so the walk has one cut set to finish."""
    word = tuple(range(1, 23)) + tuple(range(44, 22, -1))
    start = time.process_time()
    got = universal_gamma(word, (1,) * 44, positive_alphabet(22))
    assert time.process_time() - start < 1
    assert dict(got.terms) == {((1, 23),) + tuple((m, 1) for m in range(2, 23)): 1}
    assert got == _gamma_chain(_ups(word), (1,) * 44, positive_alphabet(22), 22)


def _words_by_pattern(n):
    groups: dict = {}
    for word in itertools.permutations(range(1, n + 1)):
        groups.setdefault(_ups(word), []).append(word)
    return groups


def _weightings(n, rng):
    """Weights from {1, 2} along a chain of n: all of them up to n = 4,
    a seeded sample of four beyond."""
    every = list(itertools.product((1, 2), repeat=n))
    return every if n <= 4 else rng.sample(every, 4)


@pytest.mark.parametrize("n", range(1, 6))
def test_chain_gamma_depends_only_on_up_down_pattern(n):
    rng = random.Random(n)
    for words in _words_by_pattern(n).values():
        for ws in _weightings(n, rng):
            for zs in (positive_alphabet(3), signed_alphabet(3)):
                results = set()
                for word in words:
                    poset = weighted_chain(word, ws)
                    got = gamma(poset, zs, 3)
                    assert got == _assignment_sum(poset, zs, 3)
                    results.add(got)
                assert len(results) == 1


def test_flipping_one_direction_changes_gamma_as_dfs_says():
    rng = random.Random(2)
    changed = 0
    for n in range(2, 6):
        groups = _words_by_pattern(n)
        for ws in ((1,) * n, tuple(rng.choice((1, 2)) for _ in range(n))):
            for zs in (positive_alphabet(3), signed_alphabet(3)):
                dfs = {
                    ups: _assignment_sum(weighted_chain(words[0], ws), zs, 3)
                    for ups, words in groups.items()
                }
                for ups in groups:
                    for k in range(n - 1):
                        flipped = ups[:k] + (not ups[k],) + ups[k + 1:]
                        moved = _gamma_chain(ups, ws, zs, 3) != _gamma_chain(flipped, ws, zs, 3)
                        assert moved == (dfs[ups] != dfs[flipped])
                        changed += moved
    assert changed > 0


def _every_poset(n):
    """Every strict partial order on labels 1..n, once each."""
    pairs = list(itertools.permutations(range(1, n + 1), 2))
    out = set()
    for chosen in itertools.product((False, True), repeat=len(pairs)):
        try:
            out.add(LabelledWeightedPoset(n, itertools.compress(pairs, chosen)))
        except ValueError:  # a cycle
            pass
    return sorted(out, key=lambda p: sorted(p.relations))


def _respecting_words(poset):
    """The label words that respect every relation, by brute force."""
    return [
        word
        for word in itertools.permutations(range(1, poset.n + 1))
        if all(word.index(i) < word.index(j) for i, j in poset.relations)
    ]


def _closure(pairs):
    """The transitive closure of a relation set, by adding composites until none is new."""
    closed = set(pairs)
    while True:
        new = {(i, k) for i, j in closed for j2, k in closed if j == j2} - closed
        if not new:
            return frozenset(closed)
        closed |= new


@pytest.mark.parametrize("n", range(5))
def test_poset_queries_match_a_brute_force_closure(n):
    labels = range(1, n + 1)
    pairs = list(itertools.permutations(labels, 2))
    for chosen in itertools.product((False, True), repeat=len(pairs)):
        given = list(itertools.compress(pairs, chosen))
        closed = _closure(given)
        if any((v, v) in closed for v in labels):
            with pytest.raises(ValueError, match="cycle"):
                LabelledWeightedPoset(n, given)
        else:
            assert LabelledWeightedPoset(n, given).relations == closed
    for poset in _every_poset(n):
        closed = _closure(poset.covers())
        assert poset.relations == closed
        assert poset.covers() == sorted(
            (i, j) for i, j in closed
            if not any((i, k) in closed and (k, j) in closed for k in labels)
        )
        for i, j in itertools.product(range(-1, n + 2), repeat=2):
            assert poset.less(i, j) == ((i, j) in closed)
            assert poset.comparable(i, j) == ((i, j) in closed or (j, i) in closed)
        assert poset.incomparable_pairs() == [
            (i, j) for i, j in itertools.combinations(labels, 2)
            if (i, j) not in closed and (j, i) not in closed
        ]
        below = {v: sum((u, v) in closed for u in labels) for v in labels}
        total = len(closed) == n * (n - 1) // 2
        assert poset.chain_order() == (tuple(sorted(labels, key=below.get)) if total else None)
        rebuilt = LabelledWeightedPoset(n, poset.covers(), poset.weights)
        assert rebuilt == poset and hash(rebuilt) == hash(poset)


def _covers_by_or_of_every_predecessor(poset):
    """covers() as the reference: each vertex ORs the closed masks of all
    its predecessors, and covers the predecessors outside that OR."""
    preds, out = poset._preds, []
    for j, mask in enumerate(preds):
        below = 0
        for i in ppartitions._bits(mask):
            below |= preds[i]
        out += [(i, j) for i in ppartitions._bits(mask & ~below)]
    return sorted(out)


@pytest.mark.parametrize("seed", range(4))
def test_covers_match_the_or_of_every_predecessor_on_seeded_posets(seed):
    rng = random.Random(f"covers/{seed}")
    for _ in range(150):
        poset = _random_poset(rng, max_n=8)
        assert poset.covers() == _covers_by_or_of_every_predecessor(poset)
        assert LabelledWeightedPoset(poset.n, poset.covers()) == poset


def test_covers_of_a_long_chain_with_shuffled_labels_and_of_a_wide_fan():
    labels = list(range(1, 2001))
    random.Random(2000).shuffle(labels)
    poset = LabelledWeightedPoset(2000, zip(labels, labels[1:]))
    want = sorted(zip(labels, labels[1:]))
    assert poset.covers() == want == _covers_by_or_of_every_predecessor(poset)
    fan = _fan(20000)
    assert fan.covers() == [(1, j) for j in range(2, 20001)]


def test_a_poset_reads_its_covers_once(monkeypatch):
    """The constructor reads the covers from the closed masks; gamma,
    covers(), linear_extension() and enumerate_assignments read them back."""
    calls = []

    def counted(*args):
        calls.append(args)
        return lower_covers(*args)

    lower_covers = ppartitions._lower_covers
    monkeypatch.setattr(ppartitions, "_lower_covers", counted)
    fan = LabelledWeightedPoset.from_json_dict({"n": 4, "covers": [[1, 2], [1, 3], [1, 4]]})
    assert dict(gamma(fan, (1,)).terms) == {((1, 4),): 1}
    assert len(calls) == 1
    assert fan.covers() == [(1, 2), (1, 3), (1, 4)]
    assert fan.linear_extension() == (1, 2, 3, 4)
    assert len(enumerate_assignments(fan, signed_alphabet(2))) > 0
    assert len(calls) == 1
    assert fan._below == ((), (), (1,), (1,), (1,))
    assert fan._above == ((), (2, 3, 4), (), (), ())
    LabelledWeightedPoset(40000)  # no relation, so no cover to read
    assert len(calls) == 1


@pytest.mark.parametrize("n", range(5))
def test_linear_extensions_of_every_small_poset(n):
    posets = _every_poset(n)
    assert len(posets) == (1, 1, 3, 19, 219)[n]
    for poset in posets:
        extensions = list(poset.linear_extensions())
        assert extensions == _respecting_words(poset)  # lexicographic, no repeats
        assert poset.linear_extension() == extensions[0]


def test_linear_extensions_of_antichains_and_chains():
    for n in range(6):
        extensions = list(LabelledWeightedPoset(n).linear_extensions())
        assert len(extensions) == len(set(extensions)) == math.factorial(n)
        assert extensions == sorted(extensions)
    assert list(LabelledWeightedPoset(0).linear_extensions()) == [()]
    assert LabelledWeightedPoset(0).linear_extension() == ()
    for word in ((1, 2, 3, 4), (3, 1, 4, 2), (5, 4, 3, 2, 1)):
        chain = chain_poset(word)
        assert list(chain.linear_extensions()) == [word]
        assert chain.linear_extension() == word == chain.chain_order()
    rng = random.Random(11)
    for _ in range(20):
        poset = _random_poset(rng, max_n=7)
        extensions = list(poset.linear_extensions())
        assert extensions == sorted(set(extensions))
        assert poset.linear_extension() == extensions[0]
        for word in extensions:
            assert all(word.index(i) < word.index(j) for i, j in poset.relations)


def _linear_extensions_by_recursion(poset):
    """linear_extensions() as the reference: the recursive depth-first walk."""
    n, preds = poset.n, poset._preds

    def rec(word, placed):
        if len(word) == n:
            yield word
        for v in range(1, n + 1):
            if not placed >> v & 1 and preds[v] & placed == preds[v]:
                yield from rec(word + (v,), placed | 1 << v)

    return list(rec((), 0))


def _assignments_by_recursion(poset, zs):
    """_assignments as the reference: the recursive depth-first walk along
    the first linear extension."""
    n, preds = poset.n, poset._preds
    order = _linear_extensions_by_recursion(poset)[0]
    vals = [0] * (n + 1)

    def rec(k):
        if k == n:
            yield tuple(vals[1:])
            return
        label = order[k]
        below = ppartitions._bits(preds[label])
        for z in zs:
            if all(ppartitions._respects(i, label, vals[i], z) for i in below):
                vals[label] = z
                yield from rec(k + 1)

    return list(rec(0))


@pytest.mark.parametrize("seed", range(3))
def test_walks_with_a_stack_match_the_recursive_walks_on_seeded_posets(seed):
    rng = random.Random(f"stack/{seed}")
    posets = [LabelledWeightedPoset(0)] + [_random_poset(rng, max_n=7) for _ in range(60)]
    for poset in posets:
        extensions = _linear_extensions_by_recursion(poset)
        assert list(poset.linear_extensions()) == extensions
        assert poset.linear_extension() == extensions[0]
        for zs in ((1,), (-1, 1), (1, -2, 2)):
            want = _assignments_by_recursion(poset, zs)
            assert list(ppartitions._assignments(poset, zs)) == want


def test_walks_past_the_recursion_limit():
    labels = list(range(1, 5001))
    random.Random(5000).shuffle(labels)
    assert chain_poset(labels).linear_extension() == tuple(labels)
    assert chain_poset(range(1, 2001)).linear_extension() == tuple(range(1, 2001))
    antichain = LabelledWeightedPoset(1500)
    assert antichain.linear_extension() == tuple(range(1, 1501))
    assert enumerate_assignments(antichain, (1,)) == [(1,) * 1500]
    chain = chain_poset(range(1, 1101))
    assert list(chain.linear_extensions()) == [tuple(range(1, 1101))]
    labels = list(range(1, 3001))
    random.Random(3000).shuffle(labels)
    shuffled = chain_poset(labels)
    assert next(shuffled.linear_extensions()) == shuffled.linear_extension()
    assert enumerate_assignments(chain, (1,)) == [(1,) * 1100]
    assert enumerate_assignments(chain, (-1,)) == []
    assert enumerate_assignments(chain_poset(range(1, 3001)), (1,)) == [(1,) * 3000]


def _assignments_by_every_predecessor(poset, zs):
    """_assignments as it checked a value before the covers sufficed: the
    same stack walk, against every predecessor in the closed mask."""
    n, preds = poset.n, poset._preds
    order = poset.linear_extension()
    vals = [0] * (n + 1)
    stack = [(0, 0)]
    while stack:
        k, t = stack.pop()
        if k == n:
            yield tuple(vals[1:])
            continue
        label = order[k]
        below = ppartitions._bits(preds[label])
        for t in range(t, len(zs)):
            if all(ppartitions._respects(i, label, vals[i], zs[t]) for i in below):
                vals[label] = zs[t]
                stack += ((k, t + 1), (k + 1, 0))
                break


_ALPHABETS = ((1,), (-1,), (-1, 1), (1, 2), (-2, -1), (1, -2, 2), signed_alphabet(2))


@pytest.mark.parametrize("seed", range(3))
def test_checking_covers_only_gives_every_assignment_in_the_same_order(seed):
    rng = random.Random(f"covers/{seed}")
    for _ in range(100):
        poset = _random_poset(rng, max_n=7)
        for zs in _ALPHABETS:
            want = list(_assignments_by_every_predecessor(poset, zs))
            assert list(ppartitions._assignments(poset, zs)) == want


def _assert_gamma_is_assignment_sum(poset, zs, nvars):
    got, want = gamma(poset, zs, nvars), _assignment_sum(poset, zs, nvars)
    assert got == want
    assert dict(got.terms) == dict(want.terms)
    assert got.degree == want.degree


@pytest.mark.parametrize("n", range(5))
def test_gamma_matches_assignment_sum_on_every_small_poset(n):
    rng = random.Random(n)
    for poset in _every_poset(n):
        heavy = LabelledWeightedPoset(
            n, poset.relations, [rng.choice((1, 2)) for _ in range(n)]
        )
        for weighted in (poset, heavy):
            for zs in (positive_alphabet(3), signed_alphabet(3)):
                _assert_gamma_is_assignment_sum(weighted, zs, 3)


@pytest.mark.parametrize("n", (5, 6))
def test_gamma_matches_assignment_sum_on_seeded_posets(n):
    rng = random.Random(40 + n)
    for _ in range(6):
        theta = list(range(1, n + 1))
        rng.shuffle(theta)
        relations = [
            (theta[i], theta[j]) for i, j in itertools.combinations(range(n), 2)
            if rng.random() < 0.3
        ]
        weights = [rng.choice((1, 2)) for _ in range(n)]
        poset = LabelledWeightedPoset(n, relations, weights)
        # the signed alphabet, and two whose magnitudes carry different sign sets
        for zs, nvars in ((signed_alphabet(2), 2), ((1, -2, 2), 2), ((-4, -2, 1, 3), 4)):
            _assert_gamma_is_assignment_sum(poset, zs, nvars)


def _disjoint_union(p, q):
    """p beside q, q's labels shifted past p's, with no relation between them."""
    shifted = [(i + p.n, j + p.n) for i, j in q.relations]
    return LabelledWeightedPoset(
        p.n + q.n, list(p.relations) + shifted, p.weights + q.weights
    )


def test_gamma_of_a_disjoint_union_is_the_product():
    rng = random.Random(23)
    for _ in range(15):
        p = _random_poset(rng, max_n=3, weighted=True)
        q = _random_poset(rng, max_n=3, weighted=True)
        for zs, nvars in (
            (positive_alphabet(3), 3),
            (signed_alphabet(3), 3),
            ((1, -2, 2), 3),
            ((-4, -2, 1, 3), 4),
        ):
            assert gamma(_disjoint_union(p, q), zs, nvars) == poly_mul(
                gamma(p, zs, nvars), gamma(q, zs, nvars)
            )
    # the antichain of 6 over the full signed alphabet: 12^6 assignments
    zs = signed_alphabet(6)
    vertex = LabelledWeightedPoset(1)
    antichain, product = vertex, gamma(vertex, zs)
    for _ in range(5):
        antichain = _disjoint_union(antichain, vertex)
        product = poly_mul(product, gamma(vertex, zs))
    assert antichain == LabelledWeightedPoset(6)
    got = gamma(antichain, zs)
    assert got == product and got.degree == product.degree == 6
    # a chain component beside two that are not chains
    fan = LabelledWeightedPoset(3, [(1, 2), (1, 3)], (2, 1, 1))
    vee = LabelledWeightedPoset(3, [(1, 3), (2, 3)], (1, 1, 2))
    mixed = _disjoint_union(_disjoint_union(weighted_chain((2, 1), (1, 2)), fan), vee)
    for zs, nvars in ((signed_alphabet(2), 2), ((1, -2, 2), 2), ((-4, -2, 1, 3), 4)):
        _assert_gamma_is_assignment_sum(mixed, zs, nvars)


def _components_by_search(poset):
    """The components as the reference: breadth-first search over the
    relations, by smallest label, each as its labels, ascending, its
    relations relabelled 1..k in label order, and its weights."""
    near = {v: set() for v in range(1, poset.n + 1)}
    for i, j in poset.relations:
        near[i].add(j)
        near[j].add(i)
    seen, out = set(), []
    for v in range(1, poset.n + 1):
        if v in seen:
            continue
        seen.add(v)
        queue, found = [v], []
        for u in queue:  # grows while it is read
            found.append(u)
            queue += sorted(near[u] - seen)
            seen |= near[u]
        index = {u: k for k, u in enumerate(sorted(found), 1)}
        relations = {(index[i], index[j]) for i, j in poset.relations if i in index}
        out.append((sorted(found), relations, tuple(poset.weight(u) for u in sorted(found))))
    return out


@pytest.mark.parametrize("seed", range(4))
def test_components_match_a_breadth_first_search(seed):
    """_components gives each component's labels; _subposet builds it
    relabelled 1..k, and _chain_order reads a chain's order off the
    parent's masks, the order of the built component read back in labels."""
    rng = random.Random(f"components/{seed}")
    split = chains = 0
    for _ in range(250):
        n = rng.randint(1, 9)
        density = rng.choice((0.05, 0.15, 0.3))
        theta = list(range(1, n + 1))
        rng.shuffle(theta)
        relations = [
            (theta[i], theta[j]) for i, j in itertools.combinations(range(n), 2)
            if rng.random() < density
        ]
        poset = LabelledWeightedPoset(n, relations, [rng.randint(1, 3) for _ in range(n)])
        parts = ppartitions._components(poset)
        want = _components_by_search(poset)
        assert parts == [labels for labels, _, _ in want]
        for labels, relations, weights in want:
            part = ppartitions._subposet(poset, labels)
            assert (part.relations, part.weights) == (relations, weights)
            order = part.chain_order()
            if order is not None:
                chains += 1
                order = tuple(labels[v - 1] for v in order)
            assert ppartitions._chain_order(poset._preds, labels) == order
        split += len(want) > 1
    assert split >= 250 / 3 and chains >= 250


def test_gamma_of_two_long_chains():
    chains = LabelledWeightedPoset(
        4000, [(i, i + 1) for i in itertools.chain(range(1, 2000), range(2001, 4000))]
    )
    parts = ppartitions._components(chains)
    assert parts == [list(range(1, 2001)), list(range(2001, 4001))]
    assert [ppartitions._chain_order(chains._preds, labels) for labels in parts] == [
        tuple(labels) for labels in parts
    ]
    assert dict(gamma(chains, positive_alphabet(1), 1).terms) == {((1, 4000),): 1}


def _counting_constructor(monkeypatch) -> list:
    """Count the calls of the poset constructor from here on."""
    calls = []
    init = LabelledWeightedPoset.__init__

    def counted(self, *args, **kwargs):
        calls.append(args[0] if args else kwargs["n"])
        init(self, *args, **kwargs)

    monkeypatch.setattr(LabelledWeightedPoset, "__init__", counted)
    return calls


def test_gamma_builds_a_poset_only_for_a_component_it_walks(monkeypatch, tmp_path):
    # through the CLI, the 40,000-vertex antichain is the one poset read
    # from its file, and each vertex goes to the chain kernel
    path = tmp_path / "antichain.json"
    path.write_text('{"n": 40000}')
    calls = _counting_constructor(monkeypatch)
    assert cli.main(["gamma", "--poset", str(path), "--zset", "P", "--nvars", "1"]) == 0
    assert calls == [40000]
    two_chains = LabelledWeightedPoset(4, [(3, 2), (1, 4)])
    fan_and_chain = LabelledWeightedPoset(6, [(1, 3), (1, 4), (2, 5)], [1, 2, 1, 1, 2, 1])
    # the walk needs a poset: over a mixed alphabet each component is built
    for poset, zs, built in (
        (two_chains, signed_alphabet(2), []),
        (fan_and_chain, signed_alphabet(2), [3]),
        (two_chains, (-1, 2), [2, 2]),
    ):
        want = _assignment_sum(poset, zs, 2)
        calls.clear()
        assert gamma(poset, zs) == want
        assert calls == built, (poset, zs)


def _extension_sum(poset, zs, nvars):
    """gamma by Stembridge's lemma read literally: universal_gamma summed
    over every linear extension, with the weights read along it."""
    acc = {}
    for word in poset.linear_extensions():
        alpha = [poset.weight(label) for label in word]
        for mono, c in universal_gamma(word, alpha, zs, nvars).terms.items():
            acc[mono] = acc.get(mono, 0) + c
    return TruncatedPoly(nvars, sum(poset.weights), acc)


def test_gamma_equals_the_extension_sum_on_seeded_posets():
    rng = random.Random(12)

    def weights(n):
        return [rng.choice((1, 2)) for _ in range(n)]

    fan = LabelledWeightedPoset(8, [(1, j) for j in range(2, 9)], weights(8))
    two_chains = _disjoint_union(
        weighted_chain((2, 4, 1, 3), weights(4)), weighted_chain((3, 1, 2, 4), weights(4))
    )
    posets = [fan, two_chains]
    for n in (7, 7, 7, 8, 8, 8):
        theta = list(range(1, n + 1))
        rng.shuffle(theta)
        relations = [
            (theta[i], theta[j]) for i, j in itertools.combinations(range(n), 2)
            if rng.random() < 0.3
        ]
        posets.append(LabelledWeightedPoset(n, relations, weights(n)))
    for poset in posets:
        for zs in (positive_alphabet(2), signed_alphabet(2)):
            assert gamma(poset, zs) == _extension_sum(poset, zs, 2)
    antichain = LabelledWeightedPoset(8)
    assert gamma(antichain, (1,)) == _extension_sum(antichain, (1,), 1)
    assert dict(gamma(antichain, (1,)).terms) == {((1, 8),): 1}  # every vertex at 1


@pytest.mark.parametrize("n", range(1, 6))
def test_chain_functions_match_descent_and_peak_classes(n):
    pos = positive_alphabet(5)
    sgn = signed_alphabet(5)
    for word in itertools.permutations(range(1, n + 1)):
        chain = chain_poset(word)
        l_comp = composition_of_subset(n, descent_set_of_permutation(word))
        assert gamma(chain, pos) == expand(QSymElement.term("L", l_comp), 5, n)
        k_comp = odd_composition_of_peak_set(n, peak_set_of_permutation(word))
        assert gamma(chain, sgn) == expand(QSymElement.term("K", k_comp), 5, n)


def test_split_incomparable():
    antichain = LabelledWeightedPoset(2, weights=(2, 3))
    p1, p2 = split_incomparable(antichain, 1, 2)
    assert p1.less(1, 2) and p2.less(2, 1)
    zs = signed_alphabet(3)
    assert gamma(antichain, zs) == poly_add(gamma(p1, zs), gamma(p2, zs))
    with pytest.raises(ValueError):
        split_incomparable(p1, 1, 2)


def test_split_soundness_random():
    rng = random.Random(17)
    zs = signed_alphabet(3)
    done = 0
    while done < 50:
        poset = _random_poset(rng, max_n=6, weighted=True)
        pairs = poset.incomparable_pairs()
        if not pairs:
            continue
        i, j = rng.choice(pairs)
        p1, p2 = split_incomparable(poset, i, j)
        assert gamma(poset, zs) == poly_add(gamma(p1, zs), gamma(p2, zs))
        done += 1


def test_split_two_chains_terminates_in_shuffles():
    n, m = 2, 2
    pi, sigma = (2, 1), (1, 2)
    relations = [(pi[0], pi[1])] + [(n + sigma[0], n + sigma[1])]
    start = LabelledWeightedPoset(n + m, relations)
    stack, chains = [start], []
    while stack:
        poset = stack.pop()
        pairs = poset.incomparable_pairs()
        if not pairs:
            chains.append(poset)
            continue
        stack.extend(split_incomparable(poset, *pairs[0]))
    assert len(chains) == math.comb(n + m, n)
    assert len(set(chains)) == len(chains)
    zs = signed_alphabet(2)
    total = None
    for chain in chains:
        piece = gamma(chain, zs)
        total = piece if total is None else poly_add(total, piece)
    assert total == gamma(start, zs)


def test_universal_gamma_specializations():
    word, alpha = (1, 3, 2), (2, 1, 2)
    assert universal_gamma(word, (1, 1, 1), positive_alphabet(5)) == expand(
        QSymElement.term("L", (2, 1)), 5, 3
    )
    assert universal_gamma((1, 2, 3), alpha, signed_alphabet(4)) == expand(
        QSymElement.term("eta", alpha), 4, 5
    )
    assert universal_gamma((3, 2, 1), alpha, positive_alphabet(4)) == expand(
        QSymElement.term("M", alpha), 4, 5
    )


def test_universal_to_eta():
    assert universal_to_eta((1, 2, 3), (2, 1, 2)) == QSymElement.term("eta", (2, 1, 2))
    assert universal_to_eta((1, 3, 2), (1, 1, 1)) == QSymElement(
        "eta", {(1, 1, 1): 1, (3,): -1}
    )
    assert universal_to_eta((1, 3, 2), (1, 1, 1)) == convert(QSymElement.term("K", (3,)), "eta")
    with pytest.raises(ValueError):
        universal_to_eta((1, 2), (1,))


def _universal_to_eta_reference(word, alpha):
    """The closed formula through the public, checked contraction."""
    terms = [
        (contract_set(alpha, chosen), (-1) ** len(chosen))
        for chosen in subsets(peak_set_of_permutation(word))
    ]
    return QSymElement("eta", terms)


@pytest.mark.parametrize("n", range(7))
def test_universal_to_eta_matches_the_checked_formula(n):
    rng = random.Random(n)
    for word in itertools.permutations(range(1, n + 1)):
        for alpha in ((1,) * n, tuple(rng.randint(1, 3) for _ in range(n))):
            got = universal_to_eta(word, alpha)
            assert got == _universal_to_eta_reference(word, alpha)
            assert all(type(c) is Fraction and c for c in got.terms.values())


def test_u_expansion_checks_each_word_once(monkeypatch):
    """universal_to_eta reads the peaks from the word it checked, so one
    check_u_expansion run checks each of its 1944 words once."""
    calls = 0
    real = combinatorics.check_permutation

    def counting(pi):
        nonlocal calls
        calls += 1
        return real(pi)

    for module in (combinatorics, ppartitions):
        monkeypatch.setattr(module, "check_permutation", counting)
    assert verification.check_u_expansion().passed
    assert calls == 1944


@pytest.mark.parametrize("n", range(1, 4))
def test_universal_to_eta_matches_gamma(n):
    sgn = signed_alphabet(4)
    for word in itertools.permutations(range(1, n + 1)):
        for alpha in itertools.product((1, 2, 3), repeat=n):
            symbolic = universal_to_eta(word, alpha)
            assert expand(symbolic, 4, sum(alpha)) == universal_gamma(
                word, alpha, sgn, 4
            )


def test_coshuffle_product():
    pairs = coshuffle_product((1,), (2,), (1,), (1,))
    assert set(pairs) == {((1, 2), (2, 1)), ((2, 1), (1, 2))}
    zs = signed_alphabet(3)
    lhs = poly_mul(
        universal_gamma((1,), (2,), zs), universal_gamma((1,), (1,), zs)
    )
    rhs = None
    for tau, comp in pairs:
        piece = universal_gamma(tau, comp, zs)
        rhs = piece if rhs is None else poly_add(rhs, piece)
    assert lhs == rhs
    assert coshuffle_product((), (), (1,), (3,)) == [((1,), (3,))]
    assert ((1, 3, 2), (2, 1, 2)) in coshuffle_product((1, 2), (2, 2), (1,), (1,))


@pytest.mark.parametrize("n,m", [(1, 1), (2, 1), (2, 2), (3, 2)])
def test_shuffle_product_identity(n, m):
    for zs in (positive_alphabet(4), signed_alphabet(4)):
        for pi in itertools.permutations(range(1, n + 1)):
            for sigma in itertools.permutations(range(1, m + 1)):
                lhs = poly_mul(
                    gamma(chain_poset(pi), zs, 4), gamma(chain_poset(sigma), zs, 4)
                )
                rhs = None
                for word in shuffles(pi, sigma):
                    piece = gamma(chain_poset(word), zs, 4)
                    rhs = piece if rhs is None else poly_add(rhs, piece)
                assert lhs == rhs


def test_enumeration_is_memoization_safe():
    # cached gamma results must not leak mutable state between calls
    chain = chain_poset((1, 2))
    first = gamma(chain, signed_alphabet(2))
    again = gamma(chain, signed_alphabet(2))
    assert first == again and first.terms == again.terms
