"""Posets, enriched assignments, generating functions, splits."""

import itertools
import math
import random

import pytest

from qsym.combinatorics import (
    composition_of_subset,
    descent_set_of_permutation,
    odd_composition_of_peak_set,
    peak_set_of_permutation,
    shuffles,
)
from qsym.core import K_to_eta, QSymElement, convert
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
from qsym.ppartitions import _gamma_chain


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
    ],
)
def test_poset_json_rejects_malformed_fields(data, field):
    with pytest.raises(ValueError, match=field):
        LabelledWeightedPoset.from_json_dict(data)


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


@pytest.mark.parametrize("word", [(1, 1), (0, 1), (2, 3), (1, 2, 4), (2,)])
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


def test_enumerate_assignments_small():
    single = LabelledWeightedPoset(1)
    assert len(enumerate_assignments(single, signed_alphabet(4))) == 8
    assert enumerate_assignments(chain_poset((1, 2)), (1,)) == [(1, 1)]
    assert enumerate_assignments(chain_poset((2, 1)), (1,)) == []
    assert enumerate_assignments(LabelledWeightedPoset(0), (1, -1)) == [()]


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
    # all the weight on one variable: an exponent equals the degree bound,
    # at the bit-length boundaries of the packed exponent fields
    for degree in (1, 2, 3, 4, 7, 8, 15, 16):
        n = min(degree, 3)
        alpha = (degree - n + 1,) + (1,) * (n - 1)
        top = ((3, degree),)
        pos, sgn = _chain_against_dfs(tuple(range(1, n + 1)), alpha)
        assert pos.terms[top] > 0 and sgn.terms[top] > 0
        pos, sgn = _chain_against_dfs(tuple(range(n, 0, -1)), alpha)
        assert sgn.terms[top] > 0


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
    zs = signed_alphabet(2)
    for _ in range(6):
        theta = list(range(1, n + 1))
        rng.shuffle(theta)
        relations = [
            (theta[i], theta[j]) for i, j in itertools.combinations(range(n), 2)
            if rng.random() < 0.3
        ]
        weights = [rng.choice((1, 2)) for _ in range(n)]
        _assert_gamma_is_assignment_sum(LabelledWeightedPoset(n, relations, weights), zs, 2)


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
        for zs in (positive_alphabet(3), signed_alphabet(3)):
            assert gamma(_disjoint_union(p, q), zs, 3) == poly_mul(
                gamma(p, zs, 3), gamma(q, zs, 3)
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
    assert universal_to_eta((1, 3, 2), (1, 1, 1)) == K_to_eta((3,))
    with pytest.raises(ValueError):
        universal_to_eta((1, 2), (1,))


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
