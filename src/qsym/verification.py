"""Named identity checks: the suite behind ``qsym verify``.

Every check runs exact arithmetic at desk scale and reports pass/fail with
counterexamples.  The acceptance tests call the same functions at their
full sweep bounds; the CLI can cap the bounds with --max-degree for a
quicker run.  A sub-result that a check repeats is computed once per run,
through a functools.cache made inside the check: nothing outlives the
call.  The chain checks memoise their comparison too, keyed by the element
each case computed, so a case passes only on its own element's verdict.
The shuffle and eta product checks compare exact int maps of
M-coefficients {code(b): c_b}, each side summed with _add_into and
finished with _nonzero.  Both take their reference side from the M
quasi-shuffle of the factors' M-coefficients, one _pair_walk per pair of
codes.
"""

from __future__ import annotations

import functools
import itertools
import math
import random
from collections import Counter
from collections.abc import Mapping
from fractions import Fraction

from .combinatorics import (
    compositions,
    contract,
    contract_set,
    descent_set,
    odd_compositions,
    odd_part_refinement,
    peak_set_of_composition,
    identity_permutation,
    reversed_identity,
    shuffles,
    subsets,
)
from .core import (
    K_of_permutation,
    L_of_permutation,
    QSymElement,
    _add_into,
    _nonzero,
    _pair_walk,
    antipode,
    convert,
    coproduct,
    eta_product,
    signed_subset_sum,
)
from .expansion import (
    _int_sum,
    certify_equal,
    embed,
    expand,
    poly_mul,
)
from .ppartitions import (
    _chain_m_terms,
    _ups,
    coshuffle_product,
    positive_alphabet,
    signed_alphabet,
    universal_to_eta,
)

_SEED = 20260810
_COPRODUCT_SAMPLES = 20  # random elements whose coproduct check_eta_coproduct splits
_MAX_REPORTED = 5


class CheckResult:
    """One check's verdict: its name, whether it passed, a detail line and
    its counterexamples (a fresh list by default).  Results compare and
    print field by field, as a dataclass's would; a plain class keeps
    ``dataclasses``, and the ``inspect`` it loads, out of every import."""

    def __init__(self, name: str, passed: bool, detail: str, failures: list[str] | None = None):
        self.name, self.passed, self.detail = name, passed, detail
        self.failures = [] if failures is None else failures

    def _fields(self) -> tuple:
        return self.name, self.passed, self.detail, self.failures

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __repr__(self):
        return (
            f"CheckResult(name={self.name!r}, passed={self.passed!r}, "
            f"detail={self.detail!r}, failures={self.failures!r})"
        )

    def lines(self) -> list[str]:
        status = "PASS" if self.passed else "FAIL"
        out = [f"{status}  {self.name}: {self.detail}"]
        out.extend(f"      counterexample: {f}" for f in self.failures[:_MAX_REPORTED])
        if len(self.failures) > _MAX_REPORTED:
            out.append(f"      ... and {len(self.failures) - _MAX_REPORTED} more")
        return out


class _Recorder:
    def __init__(self):
        self.count = 0
        self.failures: list[str] = []

    def check(self, ok: bool, describe: str, *args) -> None:
        """Count one case; a failure is described by describe.format(*args),
        or by describe itself when no args are given, so a passing case
        formats nothing."""
        self.count += 1
        if not ok:
            self.failures.append(describe.format(*args) if args else describe)

    def result(self, name: str, what: str) -> CheckResult:
        """A check that ran no cases fails: it would certify nothing."""
        return CheckResult(
            name, self.count > 0 and not self.failures, f"{self.count} {what}", self.failures
        )


def _cap(bound: int, max_degree: int | None) -> int:
    return bound if max_degree is None else min(bound, max_degree)


def check_golden_examples(max_degree: int | None = None) -> CheckResult:
    """Worked examples reproduced term for term."""
    r = _Recorder()
    r.check(
        convert(QSymElement.term("eta", (1, 3, 1)), "M")
        == QSymElement("M", {(5,): 2, (1, 4): 4, (4, 1): 4, (1, 3, 1): 8}),
        "eta_(1,3,1) in M",
    )
    r.check(
        eta_product((1, 2), (2,))
        == QSymElement("eta", {(2, 1, 2): 1, (1, 2, 2): 2, (5,): -1}),
        "eta_product((1,2),(2))",
    )
    r.check(
        eta_product((1, 1), (2, 3))
        == QSymElement(
            "eta",
            {
                (1, 1, 2, 3): 1,
                (1, 2, 1, 3): 1,
                (4, 3): -1,
                (2, 1, 1, 3): 1,
                (1, 2, 3, 1): 1,
                (1, 6): -1,
                (2, 1, 3, 1): 1,
                (2, 5): -1,
                (2, 3, 1, 1): 1,
                (6, 1): -1,
            },
        ),
        "eta_product((1,1),(2,3))",
    )
    r.check(descent_set((1, 1, 3, 3, 1)) == (1, 2, 5, 8), "descent_set((1,1,3,3,1))")
    r.check(
        odd_part_refinement((1, 1, 3, 3, 1)) == (1, 1, 2, 1, 2, 1, 1),
        "odd_part_refinement((1,1,3,3,1))",
    )
    r.check(
        peak_set_of_composition((1, 1, 3, 3, 1)) == (4, 7),
        "peak_set_of_composition((1,1,3,3,1))",
    )
    r.check(contract((2, 1, 4, 3, 2), 3) == (2, 8, 2), "contract((2,1,4,3,2), 3)")
    r.check(contract_set((2, 1, 4, 3, 2), (2, 4)) == (12,), "contract_set((2,1,4,3,2), {2,4})")
    m21 = expand(QSymElement.term("M", (2, 1)), 3, 3)
    r.check(
        dict(m21.terms)
        == {((1, 2), (2, 1)): 1, ((1, 2), (3, 1)): 1, ((2, 2), (3, 1)): 1},
        "expand(M_(2,1), 3, 3)",
    )
    l21 = expand(QSymElement.term("L", (2, 1)), 3, 3)
    r.check(
        dict(l21.terms)
        == {
            ((1, 2), (2, 1)): 1,
            ((1, 2), (3, 1)): 1,
            ((1, 1), (2, 1), (3, 1)): 1,
            ((2, 2), (3, 1)): 1,
        },
        "expand(L_(2,1), 3, 3)",
    )
    return r.result("golden examples", "worked examples")


def check_basis_round_trip(max_degree: int | None = None) -> CheckResult:
    """M <-> eta conversions are mutually inverse on all basis elements."""
    top = _cap(7, max_degree)
    r = _Recorder()
    for n in range(top + 1):
        for alpha in compositions(n):
            back = convert(convert(QSymElement.term("eta", alpha), "M"), "eta")
            r.check(
                back == QSymElement.term("eta", alpha),
                "eta_{} to M and back = {}", alpha, back,
            )
            back = convert(convert(QSymElement.term("M", alpha), "eta"), "M")
            r.check(
                back == QSymElement.term("M", alpha),
                "M_{} to eta and back = {}", alpha, back,
            )
    return r.result(f"basis round trips (n <= {top})", "round trips")


def _quasi_shuffle(ta: Mapping, tb: Mapping, walk, scale: int = 1) -> dict:
    """The M quasi-shuffle of two int maps of M-coefficients {code: c},
    times scale: the sum of scale * c_a * c_b * walk(a, b) over their codes,
    finished by _nonzero, so two such maps are equal exactly when the
    products are."""
    acc: dict = {}
    for ca, va in ta.items():
        for cb, vb in tb.items():
            _add_into(acc, walk(ca, cb), va * vb * scale)
    return _nonzero(acc)


def check_eta_product_rule(max_degree: int | None = None) -> CheckResult:
    """Closed eta product rule vs the M quasi-shuffle, compared on
    M-coefficients {code(b): c_b}.

    The closed side is eta_product(alpha, beta), whose coefficients on
    x_1^b_1 ... x_k^b_k are read from the eta defining series of its terms
    by _int_sum.  The reference side is the M quasi-shuffle of
    convert(eta_alpha, "M") and convert(eta_beta, "M"), whose M coefficients
    are those same numbers.  Both are exact int maps over one common
    denominator.  Within one call each eta term is converted to M and each
    pair of M terms walked once.
    """
    top = _cap(7, max_degree)
    r = _Recorder()
    in_m = functools.cache(lambda c: convert(QSymElement.term("eta", c), "M"))
    walk = functools.cache(lambda ca, cb: _pair_walk("M", ca, cb))
    for total in range(top + 1):
        for na in range(total + 1):
            for alpha, beta in itertools.product(compositions(na), compositions(total - na)):
                a, b = in_m(alpha), in_m(beta)
                direct = eta_product(alpha, beta)
                common = math.lcm(a._den * b._den, direct._den)
                reference = _quasi_shuffle(a._terms, b._terms, walk, common // (a._den * b._den))
                r.check(_int_sum(direct, common) == reference, "eta_{} * eta_{}", alpha, beta)
    return r.result(f"eta product rule (|a|+|b| <= {top})", "products certified")


def check_eta_coproduct(max_degree: int | None = None) -> CheckResult:
    """Deconcatenation coproduct of eta, against the M route and the oracle;
    the M image of eta_alpha serves its M route and every leg alpha, and
    each split leg is expanded once."""
    top = _cap(6, max_degree)
    r = _Recorder()
    in_m = functools.cache(lambda c: convert(QSymElement.term("eta", c), "M"))
    leg = functools.cache(lambda basis, c, d: expand(QSymElement.term(basis, c), 2, d))
    for n in range(top + 1):
        for alpha in compositions(n):
            lhs = coproduct(QSymElement.term("eta", alpha)).map_legs(in_m, in_m, ("M", "M"))
            r.check(lhs == coproduct(in_m(alpha)), "coproduct(eta_{}) through M", alpha)
    rng = random.Random(_SEED)
    degree_cap = _cap(5, max_degree)
    for _ in range(_COPRODUCT_SAMPLES):
        elem = _random_element(rng, degree_cap)
        d = max(elem.degree, 1)
        # the alphabet x1, x2 | x3, x4 split into two blocks of two
        lhs = expand(elem, 4, d)
        tens = coproduct(elem)
        lb, rb = tens.bases
        rhs: dict = {}
        for (cl, cr), coeff in tens.terms.items():
            piece = poly_mul(embed(leg(lb, cl, d), 4, 0), embed(leg(rb, cr, d), 4, 2))
            _add_into(rhs, piece.terms, coeff)
        r.check(lhs.terms == _nonzero(rhs), "alphabet split of {}", elem)
    return r.result(
        f"eta coproduct (n <= {top}) + {_COPRODUCT_SAMPLES} alphabet splits", "coproducts"
    )


def _random_element(rng: random.Random, degree_cap: int) -> QSymElement:
    basis = rng.choice(("M", "eta"))
    terms = []
    for _ in range(rng.randint(1, 3)):
        n = rng.randint(1, max(degree_cap, 1))
        comp = rng.choice(list(compositions(n)))
        coeff = Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.choice([1, 2]))
        terms.append((comp, coeff))
    return QSymElement(basis, terms)


def check_antipode(max_degree: int | None = None) -> CheckResult:
    """Involution, eta-vs-M route agreement, and the Hopf antipode axiom."""
    top = _cap(6, max_degree)
    hopf_top = _cap(5, max_degree)
    r = _Recorder()
    s = functools.cache(lambda basis, c: antipode(QSymElement.term(basis, c)))
    for n in range(top + 1):
        for alpha in compositions(n):
            for basis in ("M", "eta"):
                elem = QSymElement.term(basis, alpha)
                r.check(antipode(s(basis, alpha)) == elem, "S(S({}_{}))", basis, alpha)
            direct = convert(s("eta", alpha), "M")
            routed = antipode(convert(QSymElement.term("eta", alpha), "M"))
            r.check(direct == routed, "antipode routes for eta_{}", alpha)
    for n in range(hopf_top + 1):
        for alpha in compositions(n):
            elem = QSymElement.term("eta", alpha)
            folded = coproduct(elem).map_legs(
                functools.partial(s, "eta"),
                lambda c: QSymElement.term("eta", c),
                ("eta", "eta"),
            ).multiply_legs()
            expected = QSymElement.unit("eta").scale(elem.counit())
            r.check(
                certify_equal(folded, expected),
                "Hopf axiom on eta_{}: {}", alpha, folded,
            )
    return r.result(
        f"antipode (S^2, routes n <= {top}; Hopf axiom n <= {hopf_top})", "identities"
    )


def _chain_agrees(nvars: int, ups: tuple, ws: tuple, zs: tuple, elem: QSymElement) -> bool:
    """Whether the function of the chain (ups, ws) over the alphabet zs of
    nvars magnitudes has elem's M-coefficients {code(b): c_b}, read from
    elem's defining series and kept for the b with at most nvars parts
    (bits): exactly those an expansion in nvars variables keeps.

    A pure function of its arguments, elem by value, so a check memoises it
    per (up-down pattern, weights, alphabet, element): every case still
    computes its own element, and a word whose element differs from its
    pattern's other words is compared on its own.
    """
    common = elem._den
    coeffs = _int_sum(elem, common)
    return {b: c for b, c in coeffs.items() if b.bit_count() <= nvars} == {
        b: c * common for b, c in _chain_m_terms(ups, ws, zs).items()
    }


def check_specializations(max_degree: int | None = None) -> CheckResult:
    """Weighted-chain generating functions against the four basis series,
    compared on M-coefficients by _chain_agrees.

    Each case computes its element (L or K of its word, M or eta of its
    weights); the comparison runs once per distinct (up-down pattern,
    weights, alphabet, element) within this call: 186 comparisons for the
    430 cases at n <= 5, since words with one pattern share L and K.
    """
    top = _cap(5, max_degree)
    nvars = 5
    pos, sgn = positive_alphabet(nvars), signed_alphabet(nvars)
    r = _Recorder()
    agrees = functools.cache(functools.partial(_chain_agrees, nvars))
    for n in range(1, top + 1):
        ones = (1,) * n
        for word in itertools.permutations(range(1, n + 1)):
            ups = _ups(word)
            r.check(
                agrees(ups, ones, pos, L_of_permutation(word)),
                "positive alphabet, unit weights, pi={}", word,
            )
            r.check(
                agrees(ups, ones, sgn, K_of_permutation(word)),
                "signed alphabet, unit weights, pi={}", word,
            )
        for alpha in itertools.product((1, 2), repeat=n):
            r.check(
                agrees(_ups(identity_permutation(n)), alpha, sgn, QSymElement.term("eta", alpha)),
                "signed alphabet, id, alpha={}", alpha,
            )
            r.check(
                agrees(_ups(reversed_identity(n)), alpha, pos, QSymElement.term("M", alpha)),
                "positive alphabet, reversed id, alpha={}", alpha,
            )
    return r.result(f"P-partition specializations (n <= {top})", "specializations")


def check_shuffle_products(max_degree: int | None = None) -> CheckResult:
    """Chain generating functions multiply by (co)shuffling, at both alphabets.

    Both sides are compared as int maps of M-coefficients {code(b): c_b},
    which is the same as comparing the chain functions in nvars variables.
    Each chain key (up-down pattern, weights, alphabet) is read from
    _chain_m_terms once per call.  The left side multiplies the two chain
    functions by the M quasi-shuffle, the eta product rule's reference, each
    walk cut down to the b with at most nvars parts (the M_b that survive in
    nvars variables); it is computed once per pair of chain keys.  The right
    side, the rule under test, sums the chain functions of the (co)shuffled
    words, each chain key's times its multiplicity, once per distinct
    multiset of chain keys within this call: 194 sums for the 1012 cases.
    """
    top = _cap(6, max_degree)
    nvars = 4
    alphabets = (positive_alphabet(nvars), signed_alphabet(nvars))
    r = _Recorder()
    terms = functools.cache(_chain_m_terms)

    @functools.cache
    def walk(ca, cb):
        return {c: v for c, v in _pair_walk("M", ca, cb).items() if c.bit_count() <= nvars}

    @functools.cache
    def left(keys, zs):
        return _quasi_shuffle(terms(*keys[:2], zs), terms(*keys[2:], zs), walk)

    @functools.cache
    def right(counts, zs):
        acc: dict = {}
        for (ups, ws), k in counts:
            _add_into(acc, terms(ups, ws, zs), k)
        return _nonzero(acc)

    def check(keys, chains, describe, *args):
        counts = frozenset(Counter(chains).items())  # the case's chain keys, with multiplicity
        for zs in alphabets:
            r.check(left(keys, zs) == right(counts, zs), describe, *args, len(zs))

    for n in range(1, top):
        for m in range(1, top - n + 1):
            ones = (1,) * (n + m)
            for pi in itertools.permutations(range(1, n + 1)):
                for sigma in itertools.permutations(range(1, m + 1)):
                    chains = [(_ups(word), ones) for word in shuffles(pi, sigma)]
                    check(
                        (_ups(pi), ones[:n], _ups(sigma), ones[:m]), chains,
                        "shuffle product pi={} sigma={} |Z|={}", pi, sigma,
                    )
    rng = random.Random(_SEED)
    weighted = [((1, 2), (2, 2), (1,), (1,))]
    for _ in range(40):
        n = rng.randint(1, max(1, min(3, top - 1)))
        m = rng.randint(1, max(1, min(3, top - n)))
        pi = tuple(rng.sample(range(1, n + 1), n))
        sigma = tuple(rng.sample(range(1, m + 1), m))
        alpha = tuple(rng.randint(1, 2) for _ in range(n))
        beta = tuple(rng.randint(1, 2) for _ in range(m))
        weighted.append((pi, alpha, sigma, beta))
    for pi, alpha, sigma, beta in weighted:
        chains = [(_ups(tau), parts) for tau, parts in coshuffle_product(pi, alpha, sigma, beta)]
        check(
            (_ups(pi), alpha, _ups(sigma), beta), chains,
            "coshuffle product ({},{}) x ({},{}) |Z|={}", pi, alpha, sigma, beta,
        )
    return r.result(
        f"shuffle/coshuffle products (n+m <= {top}, both alphabets)", "products"
    )


def check_u_expansion(max_degree: int | None = None) -> CheckResult:
    """Signed-alphabet chain functions as signed sums of enriched monomials.

    The symbolic side is universal_to_eta(pi, alpha), computed for every
    case; the numeric side is the chain function's M-coefficients over the
    signed alphabet of nvars magnitudes.  _chain_agrees compares them once
    per distinct (up-down pattern, weights, element) within this call: 648
    comparisons for the 1944 cases of S_4, since words with one pattern
    share their peaks.
    """
    n = _cap(4, max_degree)
    nvars = 4
    sgn = signed_alphabet(nvars)
    agrees = functools.cache(functools.partial(_chain_agrees, nvars))
    r = _Recorder()
    for word in itertools.permutations(range(1, n + 1)):
        ups = _ups(word)
        for alpha in itertools.product((1, 2, 3), repeat=n):
            r.check(
                agrees(ups, alpha, sgn, universal_to_eta(word, alpha)),
                "pi={} alpha={}", word, alpha,
            )
    return r.result(f"chain-to-eta expansion (S_{n}, parts <= 3)", "expansions")


def check_peak_conversion(max_degree: int | None = None) -> CheckResult:
    """Signed K-to-eta conversion against the peak functions' defining series."""
    top = _cap(7, max_degree)
    r = _Recorder()
    for n in range(top + 1):
        for alpha in odd_compositions(n):
            term = QSymElement.term("K", alpha)
            r.check(
                certify_equal(convert(term, "M"), term),
                "K_{}", alpha,
            )
    return r.result(f"peak function conversion (odd |a| <= {top})", "conversions")


def check_signed_subset_sum(max_degree: int | None = None) -> CheckResult:
    """The inclusion-exclusion kernel, exhaustively over subsets of [5]."""
    universe = (1, 2, 3, 4, 5)
    r = _Recorder()
    for s in subsets(universe):
        for t in subsets(universe):
            got = signed_subset_sum(s, t)
            want = 2 ** len(s) if set(s) <= set(t) else 0
            r.check(got == want, "S={} T={}: {} != {}", s, t, got, want)
    return r.result("signed subset sums (S, T within [5])", "pairs")


ALL_CHECKS = (
    check_golden_examples,
    check_basis_round_trip,
    check_eta_product_rule,
    check_eta_coproduct,
    check_antipode,
    check_specializations,
    check_shuffle_products,
    check_u_expansion,
    check_peak_conversion,
    check_signed_subset_sum,
)


def run_all(max_degree: int | None = None) -> list[CheckResult]:
    return [check(max_degree) for check in ALL_CHECKS]
