"""Exact computer algebra for the ring of quasisymmetric functions.

Four bases are supported: the monomial basis M, the fundamental basis L,
the peak functions K (indexed by odd compositions) and the enriched
monomial basis eta (a full basis once 2 is invertible, here over Q).
Every symbolic identity can be certified against truncated polynomial
expansions in finitely many variables, which are exact and sound for
equality testing at N = degree variables.
"""

from .combinatorics import (
    Composition,
    CoshufflePair,
    Permutation,
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
    peak_set_of_composition,
    peak_set_of_permutation,
    quasi_shuffles,
    reverse,
    reversed_identity,
    shuffles,
)
from .core import (
    BASES,
    K_of_permutation,
    L_of_permutation,
    NotInPeakSpanError,
    QSymElement,
    TensorElement,
    antipode,
    convert,
    coproduct,
    eta_product,
    multiply,
    signed_subset_sum,
)
from .expansion import (
    TruncatedPoly,
    certify_equal,
    embed,
    expand,
    poly_add,
    poly_mul,
    poly_scale,
)
from .ppartitions import (
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

__all__ = [name for name in dir() if not name.startswith("_")]
