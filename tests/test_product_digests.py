"""Products pinned to recorded outputs: the SHA-256 of the joined reprs of
every small product, per basis and total degree, against
``tests/data/product_digests.json``.

The groups are every pair of single terms with |alpha| + |beta| <= 9 in M,
L and eta, every pair of odd-composition K terms with |alpha| + |beta| <= 12,
and ``multiply_legs`` of the coproduct of the dense L and eta elements of
degree <= 5.  Run this file as a script to print the digests of the code on
the path, as they were recorded:

    PYTHONPATH=src python tests/test_product_digests.py > tests/data/product_digests.json
"""

import hashlib
import json
import pathlib
from fractions import Fraction

from qsym.combinatorics import compositions, odd_compositions
from qsym.core import QSymElement, coproduct, multiply

DIGESTS = pathlib.Path(__file__).parent / "data" / "product_digests.json"


def _term_pairs(basis, top):
    """Per total degree n <= top, the lines 'alpha|beta|repr(product)' of
    every pair of basis terms of sizes a + b = n."""
    comps = odd_compositions if basis == "K" else compositions
    for n in range(top + 1):
        lines = []
        for a in range(n + 1):
            for alpha in comps(a):
                for beta in comps(n - a):
                    prod = multiply(QSymElement.term(basis, alpha), QSymElement.term(basis, beta))
                    lines.append(f"{alpha}|{beta}|{prod!r}")
        yield f"{basis} {n}", lines


def _dense(basis, n):
    """Every composition of n, the k-th with coefficient (-1)^k (k+1)/(k%3+1)."""
    return QSymElement(
        basis,
        {comp: Fraction((-1) ** k * (k + 1), k % 3 + 1) for k, comp in enumerate(compositions(n))},
    )


def _legs(basis, top):
    for n in range(top + 1):
        yield f"legs {basis} {n}", [repr(coproduct(_dense(basis, n)).multiply_legs())]


def _groups():
    yield from _term_pairs("M", 9)
    yield from _term_pairs("L", 9)
    yield from _term_pairs("eta", 9)
    yield from _term_pairs("K", 12)
    yield from _legs("L", 5)
    yield from _legs("eta", 5)


def _digests():
    return {
        name: hashlib.sha256("\n".join(lines).encode()).hexdigest() for name, lines in _groups()
    }


def test_products_match_their_recorded_digests():
    assert _digests() == json.loads(DIGESTS.read_text())


if __name__ == "__main__":
    print(json.dumps(_digests(), indent=1, sort_keys=True))
