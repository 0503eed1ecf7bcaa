"""Sparse exact linear combinations in the bases M, L, K and eta.

Elements are immutable basis-tagged dictionaries mapping compositions to
nonzero int numerators, over one denominator per element.  Inside this
module a composition of n is its int code, mask | 1 << (n-1) for its
descent mask (0 for ()), so n is ``code.bit_length()``; a tensor term is a
pair of codes.  Codes are made and read back only at the boundary: the
constructors, ``term``, ``coefficient``, ``eta_product``'s arguments and
the functions handed to ``map_terms`` and ``map_legs`` encode or decode,
and ``terms``, ``sorted_terms``, ``repr`` and ``to_json_dict`` decode.
``terms`` is a read-only mapping from compositions to Fractions whose size
is read without decoding.  The kernels read and write codes; the one
decode left in them is the pair walk's, which reads each M or eta
operand's parts.  The subset codec lives in ``combinatorics``.

Coefficients are stored as ``_terms``, {code: int}, and ``_den``, one int,
in canonical form: no zero numerator, ``_den >= 1``, and no common factor
of ``_den`` and the numerators (so the zero element has ``_den == 1``).
Equal elements therefore have equal ``(basis, _den, _terms)``.  ``_raw``
(``_raw_tensor``) is the one normaliser; every kernel ends with it or
keeps an input's numerators as they are.  Fractions are built only at the
public boundary: the values of ``terms``, ``coefficient``, ``counit`` and
``sorted_terms``; ``repr``, ``to_json_dict`` and the CLI write each term
from its numerator and ``_den`` with one gcd.  The constructors clear
their input to this form in one pass.

The eta basis (enriched monomials) is defined by eta_alpha = sum of
2^len(beta) * M_beta over all beta whose descent set is contained in that
of alpha; it is a basis of QSym over any ring in which 2 is invertible, so
denominators are powers of 2 under all conversions.

Every conversion and every antipode is one Boolean-lattice transform: a
degree-n component is a vector indexed by subsets of [n-1], and the map
is the (n-1)-fold tensor power of one 2x2 matrix (Yates' algorithm, the
fast zeta/Moebius transform), looked up in the ``_LATTICE`` table.  M, L
and eta index a component by descent sets.  K and eta are related on peak
sets instead, K_alpha being the sum of (-1)^|S| eta_beta(S) over
S <= Peak(alpha), where beta(S) is the odd composition with peak set S
(the sign makes up for the one the classical monomial peak functions
carry and eta drops), so K converts through eta; an element with eta
terms that have an even part lies outside the peak subalgebra.
The antipode reverses each index (a bit reversal of the descent mask, a
byte at a time) and applies the basis's own entry.  A transform takes a
term's mask as code ^ top (K and its eta image: the peak mask, from the
code by the identity in ``combinatorics``) and writes mask | top back.
A degree whose support holds at least 1/_DENSE_SHARE of its 2^(n-1)
masks runs Yates' algorithm on a list indexed by mask, sparser ones on a
dict; the share is where the list began to win, measured over the
_LATTICE matrices (about n >= 5 at a quarter; a one-term degree, whose
image can fill the lattice, costs about the same either way).  The M/eta
deconcatenations and the L cuts are shifts and masks of the code.

Product, coproduct and antipode rules implemented per basis:

- M:   quasi-shuffle product, deconcatenation coproduct, signed
       reversed-refinement antipode.
- L:   shuffle product, coproduct by cutting the descent set,
       sign-and-complement antipode.
- eta: closed product rule through shuffles with contractions,
       deconcatenation coproduct, sign-and-reverse antipode.
- K:   a basis of the peak subalgebra only (odd compositions); product,
       coproduct and antipode route through eta and return eta-tagged
       results.

The M, L and eta products share one pair walk over (parts of alpha
consumed, parts of beta consumed) that merges equal partial products as it
goes, so no product term is enumerated twice.  A step that starts a new
part sets a new top bit of the descent mask, so the maps of two states
merge by dict unpacking unless both cut at the same size, and only then
are they summed.  Every mask carries the product's top bit from the
walk's first state, so the last state is already keyed by code.  The
multiplicities of all pairs of terms are summed in ints, in one
accumulator: each walk adds its last state into it and builds no result
map.

Every sum adds with ``dict.get``, a whole map at a time by ``_add_into``
or inline where keys are computed per item, and drops the entries that
cancel once, at the end.  Products, coproducts, conversions, antipodes
and the linear extensions ``map_terms`` and ``map_legs`` read their
operands' numerators and denominators as they are stored and sum in ints
over the product or lcm of those denominators.
Conversions and antipodes are sized before they run, and refused past
``_MASK_BUDGET`` output masks in one degree.  Products are sized while they
run: a pair walk that could hold more than ``_WALK_BUDGET`` map entries
keeps a running count of the entries of its two live grid rows, state by
state, and is refused as soon as it passes the budget.
"""

from __future__ import annotations

import itertools
import math
import operator
from collections.abc import Callable, ItemsView, Iterable, Mapping, ValuesView
from fractions import Fraction
from functools import cache, lru_cache, partial

from .combinatorics import (
    Composition,
    _code,
    _code_of_peaks,
    _composition_of_code,
    _is_odd_code,
    _peaks_of_code,
    _reversed_code,
    check_permutation,
    composition_of_subset,
    descent_set_of_permutation,
    odd_composition_of_peak_set,
    peak_set_of_permutation,
)

BASES = ("M", "L", "K", "eta")
_WALK_BUDGET = 1 << 24  # map entries a product walk holds in two grid rows

_ZERO = Fraction(0)


def _add_into(acc: dict, vec: Mapping, scale=1) -> None:
    """acc += scale * vec.  Entries that cancel stay, as 0, until the sum is
    finished by ``_nonzero``, by ``_raw`` or by a transform that skips them.
    A scale of 1 skips the multiply."""
    if scale == 1:
        for key, c in vec.items():
            acc[key] = acc.get(key, 0) + c
    else:
        for key, c in vec.items():
            acc[key] = acc.get(key, 0) + c * scale


def _nonzero(acc: dict) -> dict:
    """A finished sum: acc without the entries that cancelled."""
    return {key: c for key, c in acc.items() if c}


def _lowest(acc: dict, den: int) -> tuple[dict, int]:
    """acc / den in canonical form: the zero entries dropped, and the gcd of
    den and the numerators divided out of both (den 1 when nothing is left).
    den is positive."""
    if 0 in acc.values():
        acc = _nonzero(acc)
    common = math.gcd(den, *acc.values())
    if common != 1:
        den //= common
        acc = {key: v // common for key, v in acc.items()}
    return acc, den


def _clear(items: Iterable, encode) -> tuple[dict, int]:
    """The (key, coeff) items summed as {encode(key): numerator} over one
    common denominator, returned with it, in one pass: each key is checked
    before its coefficient, and when a coefficient's denominator does not
    divide the common one, the common one grows to their lcm and the sum so
    far is rescaled."""
    acc: dict = {}
    den = 1
    for key, coeff in items:
        code = encode(key)
        if type(coeff) is not Fraction and type(coeff) is not int:
            coeff = _coerce_coeff(coeff)
        q = coeff.denominator
        if den % q:
            grow = q // math.gcd(den, q)
            den *= grow
            acc = {c: v * grow for c, v in acc.items()}
        acc[code] = acc.get(code, 0) + coeff.numerator * (den // q)
    return acc, den


def _linear_sum(images: list) -> tuple[dict, int]:
    """The sum of coeff * vec / den over the (coeff, vec, den) in images,
    coeff an int and vec an int map: summed in ints over the lcm of the
    dens, and returned with that lcm, as ``_bilinear`` sums."""
    common = math.lcm(*(den for _, _, den in images))
    acc: dict = {}
    for coeff, vec, den in images:
        _add_into(acc, vec, coeff * (common // den))
    return acc, common


def term_sort_key(comp: Composition):
    """Canonical composition order: by degree, then length, then parts."""
    return (sum(comp), len(comp), comp)


def _exact(value) -> Fraction | int:
    """value itself when it is a Fraction or an int (not a bool), else TypeError."""
    if isinstance(value, Fraction) or isinstance(value, int) and not isinstance(value, bool):
        return value
    raise TypeError(f"coefficients must be exact rationals, got {value!r}")


def _coerce_coeff(value) -> Fraction | int:
    """An exact coefficient: a Fraction or an int as it is, a string read as
    a Fraction; anything else is refused by ``_exact``."""
    if not isinstance(value, str):
        return _exact(value)
    try:
        return Fraction(value)
    except ZeroDivisionError:
        raise ValueError(f"coefficient {value!r} has a zero denominator") from None


def format_rational(value: Fraction | int, den: int = 1) -> str:
    """value / den as p/q in lowest terms, q omitted when 1 and the sign on
    the numerator; value is a Fraction or an int, den a positive int."""
    num, q = value.numerator, value.denominator * den
    if den != 1:
        common = math.gcd(num, q)
        num, q = num // common, q // common
    return str(num) if q == 1 else f"{num}/{q}"


def _signed_sum(items, body, zero: str, den: int = 1) -> str:
    """``a + 2*b - c`` from (key, coeff) items, each coefficient coeff / den
    (coeff an int or a Fraction), ``body(key)`` naming each term.

    A key whose body is empty prints its coefficient alone.
    """
    pieces = []
    for key, coeff in items:
        num, q, text = coeff.numerator, coeff.denominator * den, body(key)
        if den != 1:
            common = math.gcd(num, q)
            num, q = num // common, q // common
        mag = -num if num < 0 else num
        if q != 1 or mag != 1 or not text:
            mag = f"{mag}/{q}" if q != 1 else str(mag)
            text = f"{mag}*{text}" if text else mag
        if pieces:
            pieces.append(f" - {text}" if num < 0 else f" + {text}")
        else:
            pieces.append(f"-{text}" if num < 0 else text)
    return "".join(pieces) or zero


class NotInPeakSpanError(ValueError):
    """Raised when converting into K an element outside the peak subalgebra."""

    def __init__(self, residual: "QSymElement"):
        self.residual = residual
        super().__init__(f"not in the span of the peak functions; residual {residual}")


def _check_basis(basis: str) -> None:
    if basis not in BASES:
        raise ValueError(f"unknown basis {basis!r}; expected one of {BASES}")


def _index_code(basis: str, comp) -> int:
    """The code of a basis index, checked and encoded in one pass."""
    comp = tuple(comp)
    code = _code(comp)
    if basis == "K" and not _is_odd_code(code):
        raise ValueError(f"K is indexed by odd compositions only, got {comp!r}")
    return code


def _lookup_code(comp) -> int | None:
    """The code of the composition that comp equals, as a lookup by tuple
    would find it ((1.0,) finds (1,)), or None when it equals none."""
    try:
        parts = tuple(comp)
        ints = tuple(map(int, parts))
        return _code(ints) if ints == parts else None
    except (TypeError, ValueError, OverflowError):
        return None


def _pair_of_codes(pair) -> tuple[int, int] | None:
    try:
        left, right = pair
    except (TypeError, ValueError):
        return None
    codes = _lookup_code(left), _lookup_code(right)
    return None if None in codes else codes


def _pair_of_compositions(codes: tuple[int, int]) -> tuple[Composition, Composition]:
    return _composition_of_code(codes[0]), _composition_of_code(codes[1])


class _Terms(Mapping):
    """A read-only view of a code-keyed dict of int numerators over one
    denominator, by compositions (pairs of them for a tensor).  Its size is
    the dict's; iterating decodes each key, a lookup encodes its key, and
    each value read is built as a Fraction."""

    __slots__ = ("_codes", "_den", "_decode", "_encode")

    def __init__(self, codes: dict, den: int, decode, encode):
        self._codes, self._den, self._decode, self._encode = codes, den, decode, encode

    def __len__(self):
        return len(self._codes)

    def __iter__(self):
        return map(self._decode, self._codes)

    def __getitem__(self, key):
        value = self._codes.get(self._encode(key))
        if value is None:
            raise KeyError(key)
        return Fraction(value, self._den)

    def items(self):
        return _TermItems(self)

    def values(self):
        return _TermValues(self)

    def __repr__(self):
        return f"{type(self).__name__}({dict(self.items())!r})"


class _TermValues(ValuesView):
    """``_Terms.values()``: each numerator over the denominator.  Each pass
    builds one Fraction per distinct numerator, shared by the terms that
    carry it."""

    __slots__ = ()

    def __iter__(self):
        den, numerators = self._mapping._den, self._mapping._codes.values()
        made = {v: Fraction(v, den) for v in set(numerators)}
        return map(made.__getitem__, numerators)


class _TermItems(ItemsView):
    """``_Terms.items()``: pairs each decoded key with its value as it
    iterates, so listing a large result builds no second dict."""

    __slots__ = ()

    def __iter__(self):
        terms = self._mapping
        return zip(map(terms._decode, terms._codes), terms.values())


class QSymElement:
    """A finite linear combination of basis elements of one fixed basis.

    Values are immutable; all arithmetic returns new elements.  Equality is
    per-basis equality of the coefficients; use expansion.certify_equal to
    compare elements expressed in different bases.  ``_terms`` maps the
    codes of the compositions (see ``combinatorics``) to int numerators
    over the one denominator ``_den``, in the canonical form the module
    docstring gives.
    """

    __slots__ = ("basis", "_terms", "_den")

    def __init__(self, basis: str, terms: Mapping | Iterable = ()):
        _check_basis(basis)
        items = terms.items() if isinstance(terms, Mapping) else terms
        acc, den = _clear(items, partial(_index_code, basis))
        _fill(self, "basis", basis, *_lowest(acc, den))

    def __setattr__(self, name, value):
        raise AttributeError("QSymElement is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def term(cls, basis: str, comp: Iterable[int], coeff=1) -> "QSymElement":
        """The one-term element coeff * basis_comp, checked as the constructor
        checks it: basis, then index, then coefficient."""
        comp = tuple(comp)
        _check_basis(basis)
        code = _index_code(basis, comp)
        coeff = _coerce_coeff(coeff)
        # a Fraction's numerator and denominator are coprime, an int's denominator 1
        if not coeff:
            return _element(basis, {}, 1)
        return _element(basis, {code: coeff.numerator}, coeff.denominator)

    @classmethod
    def unit(cls, basis: str) -> "QSymElement":
        return cls.term(basis, ())

    @classmethod
    def zero(cls, basis: str) -> "QSymElement":
        return cls(basis)

    # -- accessors ---------------------------------------------------------

    @property
    def terms(self) -> Mapping[Composition, Fraction]:
        return _Terms(self._terms, self._den, _composition_of_code, _lookup_code)

    def coefficient(self, comp: Iterable[int]) -> Fraction:
        """The coefficient of comp; 0 when comp is no composition."""
        value = self._terms.get(_lookup_code(comp))
        return _ZERO if value is None else Fraction(value, self._den)

    def counit(self) -> Fraction:
        """Coefficient of the empty composition."""
        return Fraction(self._terms.get(0, 0), self._den)

    @property
    def is_zero(self) -> bool:
        return not self._terms

    @property
    def degree(self) -> int:
        """Max size of an indexing composition; 0 for the zero element."""
        return max(self._terms, default=0).bit_length()

    def _sorted_items(self) -> list[tuple[Composition, int]]:
        """(composition, numerator) pairs in ``term_sort_key`` order."""
        pairs = zip(map(_composition_of_code, self._terms), self._terms.values())
        return sorted(pairs, key=lambda kv: term_sort_key(kv[0]))

    def sorted_terms(self) -> list[tuple[Composition, Fraction]]:
        return [(comp, Fraction(v, self._den)) for comp, v in self._sorted_items()]

    # -- arithmetic --------------------------------------------------------

    def _require_same_basis(self, other: "QSymElement"):
        if self.basis != other.basis:
            raise ValueError(
                f"basis mismatch: {self.basis} vs {other.basis}; convert first"
            )

    def __add__(self, other):
        if not isinstance(other, QSymElement):
            return NotImplemented
        self._require_same_basis(other)
        den = math.lcm(self._den, other._den)
        up = den // self._den
        acc = dict(self._terms) if up == 1 else {c: v * up for c, v in self._terms.items()}
        _add_into(acc, other._terms, den // other._den)
        return _raw(self.basis, acc, den)

    def __sub__(self, other):
        if not isinstance(other, QSymElement):
            return NotImplemented
        return self + (-other)

    def __neg__(self):
        return _element(self.basis, {c: -v for c, v in self._terms.items()}, self._den)

    def scale(self, scalar) -> "QSymElement":
        scalar = _coerce_coeff(scalar)
        num = scalar.numerator
        return _raw(
            self.basis,
            {c: v * num for c, v in self._terms.items()} if num else {},
            self._den * scalar.denominator,
        )

    def __mul__(self, other):
        if isinstance(other, QSymElement):
            return multiply(self, other)
        if isinstance(other, (int, Fraction)) and not isinstance(other, bool):
            return self.scale(other)
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)) and not isinstance(other, bool):
            return self.scale(other)
        return NotImplemented

    def __eq__(self, other):
        if not isinstance(other, QSymElement):
            return NotImplemented
        return (
            self.basis == other.basis and self._den == other._den and self._terms == other._terms
        )

    def __hash__(self):
        return hash((self.basis, self._den, frozenset(self._terms.items())))

    def __repr__(self):
        if not self._terms:
            return f"QSymElement({self.basis!r}, 0)"
        body = " + ".join(
            f"{format_rational(v, self._den)}*{self.basis}{list(c)}"
            for c, v in self._sorted_items()
        )
        return f"QSymElement({body})"

    # -- linear extension ---------------------------------------------------

    def map_terms(
        self, fn: Callable[[Composition], "QSymElement"], basis: str
    ) -> "QSymElement":
        """Apply a basis-term map linearly; ``basis`` tags the (possibly zero) result.
        The images' numerators are summed in ints by ``_linear_sum``."""
        images = []
        for code, coeff in self._terms.items():
            image = fn(_composition_of_code(code))
            if image.basis != basis:
                raise ValueError(f"term map returned basis {image.basis}, expected {basis}")
            images.append((coeff, image._terms, image._den))
        acc, common = _linear_sum(images)
        return _raw(basis, acc, common * self._den)

    # -- serialization -------------------------------------------------------

    def to_json_dict(self) -> dict:
        return {
            "basis": self.basis,
            "terms": [
                {"comp": list(comp), "coeff": format_rational(v, self._den)}
                for comp, v in self._sorted_items()
            ],
        }

    @classmethod
    def from_json_dict(cls, data: Mapping) -> "QSymElement":
        """Read ``to_json_dict``'s form; ValueError names a malformed or unknown field."""
        if not isinstance(data, Mapping):
            raise ValueError(f"an element must be a JSON object, got {type(data).__name__}")
        wrong = sorted({"basis", "terms"} ^ set(data), key=str)
        if wrong:
            key = wrong[0]
            raise ValueError(f"element field {key!r} is {'unknown' if key in data else 'missing'}")
        terms = data["terms"]
        if not isinstance(terms, list) or not all(
            isinstance(t, Mapping) and set(t) == {"comp", "coeff"} and isinstance(t["comp"], list)
            for t in terms
        ):
            raise ValueError(f"element field 'terms' must list comp/coeff objects, got {terms!r}")
        for coeff in (t["coeff"] for t in terms):
            if type(coeff) not in (int, str):  # a float, bool, null, list or object
                raise ValueError(
                    f"element field 'coeff' must be an integer or a string, got {coeff!r}"
                )
        return cls(data["basis"], [(tuple(t["comp"]), t["coeff"]) for t in terms])


def _fill(obj, tag: str, value, terms: dict, den: int):
    """Set the slots of a new element (tag "basis") or tensor (tag "bases")
    and return it; terms / den must already be canonical."""
    object.__setattr__(obj, tag, value)
    object.__setattr__(obj, "_terms", terms)
    object.__setattr__(obj, "_den", den)
    return obj


def _element(basis: str, terms: dict, den: int) -> QSymElement:
    """Internal constructor for terms / den already in canonical form."""
    return _fill(QSymElement.__new__(QSymElement), "basis", basis, terms, den)


def _raw(basis: str, acc: dict, den: int = 1) -> QSymElement:
    """The element sum of acc[code] / den * basis[code]: the one normaliser
    of int sums, which drops their zeros and divides out the gcd."""
    return _element(basis, *_lowest(acc, den))


def _raw_tensor(bases: tuple[str, str], acc: dict, den: int = 1) -> "TensorElement":
    """``_raw`` for tensors, keyed by pairs of codes."""
    return _fill(TensorElement.__new__(TensorElement), "bases", bases, *_lowest(acc, den))


class TensorElement:
    """A linear combination of pure tensors of basis elements, stored as
    ``QSymElement`` stores its terms, keyed by pairs of codes."""

    __slots__ = ("bases", "_terms", "_den")

    def __init__(self, bases: tuple[str, str], terms: Mapping | Iterable = ()):
        left, right = bases
        if left not in BASES or right not in BASES:
            raise ValueError(f"unknown basis pair {bases!r}")

        def encode(pair):
            cl, cr = pair
            return _index_code(left, cl), _index_code(right, cr)

        items = terms.items() if isinstance(terms, Mapping) else terms
        acc, den = _clear(items, encode)
        _fill(self, "bases", (left, right), *_lowest(acc, den))

    def __setattr__(self, name, value):
        raise AttributeError("TensorElement is immutable")

    @property
    def terms(self) -> Mapping:
        return _Terms(self._terms, self._den, _pair_of_compositions, _pair_of_codes)

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def _sorted_items(self) -> list:
        """((left, right), numerator) pairs, ordered by the left leg's
        ``term_sort_key``, then the right leg's."""
        pairs = zip(map(_pair_of_compositions, self._terms), self._terms.values())
        return sorted(pairs, key=lambda kv: (term_sort_key(kv[0][0]), term_sort_key(kv[0][1])))

    def sorted_terms(self):
        return [(pair, Fraction(v, self._den)) for pair, v in self._sorted_items()]

    def __eq__(self, other):
        if not isinstance(other, TensorElement):
            return NotImplemented
        return (
            self.bases == other.bases and self._den == other._den and self._terms == other._terms
        )

    def __hash__(self):
        return hash((self.bases, self._den, frozenset(self._terms.items())))

    def __repr__(self):
        if not self._terms:
            return f"TensorElement({self.bases!r}, 0)"
        lb, rb = self.bases
        body = " + ".join(
            f"{format_rational(v, self._den)}*{lb}{list(l)}(x){rb}{list(r)}"
            for (l, r), v in self._sorted_items()
        )
        return f"TensorElement({body})"

    def map_legs(
        self,
        left_fn: Callable[[Composition], QSymElement],
        right_fn: Callable[[Composition], QSymElement],
        bases: tuple[str, str],
    ) -> "TensorElement":
        """Apply basis-term maps to both legs, linearly extended; each leg
        pair's tensor product is taken in ints and summed by ``_linear_sum``.
        Each distinct leg code is decoded and mapped once per call, and each
        image's numerators are read as they are stored."""
        bases = tuple(bases)

        def leg(fn, basis):
            @cache
            def image(code):
                out = fn(_composition_of_code(code))
                if out.basis != basis:
                    raise ValueError("leg maps returned unexpected bases")
                return out._terms, out._den

            return image

        left, right = (leg(fn, basis) for fn, basis in zip((left_fn, right_fn), bases))
        images = []
        for (cl, cr), coeff in self._terms.items():
            (tl, dl), (tr, dr) = left(cl), right(cr)
            vec = {(l2, r2): vl * vr for l2, vl in tl.items() for r2, vr in tr.items()}
            images.append((coeff, vec, dl * dr))
        acc, common = _linear_sum(images)
        return _raw_tensor(bases, acc, common * self._den)

    def multiply_legs(self) -> QSymElement:
        """Multiply the two legs of every tensor and sum the results."""
        left, right = self.bases
        if left != right:
            raise ValueError("legs must share a basis to be multiplied")
        if left == "K":
            return self.map_legs(
                lambda c: convert(QSymElement.term("K", c), "eta"),
                lambda c: convert(QSymElement.term("K", c), "eta"),
                ("eta", "eta"),
            ).multiply_legs()
        pairs = ((cl, cr, coeff) for (cl, cr), coeff in self._terms.items())
        return _bilinear(left, pairs, self._den)

    def to_json_dict(self) -> dict:
        return {
            "basis": list(self.bases),
            "terms": [
                {
                    "comp_left": list(l),
                    "comp_right": list(r),
                    "coeff": format_rational(v, self._den),
                }
                for (l, r), v in self._sorted_items()
            ],
        }


def signed_subset_sum(s: Iterable, t: Iterable) -> int:
    """Sum over subsets I of s of (-1)^|I \\ t|, computed literally.

    Equals 2^|s| when s is contained in t and 0 otherwise.  The sorted
    distinct elements of s are numbered as bits, so each subset is an int
    below 2^|s| and its sign is the parity of its bits outside t.  More
    than _MASK_BUDGET subsets (past 21 distinct elements) are refused
    before the loop.

    >>> signed_subset_sum({1, 2}, {1, 2, 3})
    4
    >>> signed_subset_sum({1, 4}, {1})
    0
    """
    elems = sorted(set(s))
    if 1 << len(elems) > _MASK_BUDGET:
        head = f"the signed sum over the subsets of {len(elems)} elements needs"
        raise _over_budget(head, 1 << len(elems), "subsets", _MASK_BUDGET)
    t = set(t)
    outside = sum(1 << k for k, x in enumerate(elems) if x not in t)
    odd = sum((i & outside).bit_count() & 1 for i in range(1 << len(elems)))
    return (1 << len(elems)) - 2 * odd


def L_of_permutation(pi: Iterable[int]) -> QSymElement:
    """The fundamental function indexed by the descent composition of pi."""
    word = check_permutation(pi)
    comp = composition_of_subset(len(word), descent_set_of_permutation(word))
    return QSymElement.term("L", comp)


def K_of_permutation(pi: Iterable[int]) -> QSymElement:
    """The peak function indexed by the odd composition with Peak = Peak(pi)."""
    word = check_permutation(pi)
    comp = odd_composition_of_peak_set(len(word), peak_set_of_permutation(word))
    return QSymElement.term("K", comp)


# ---------------------------------------------------------------------------
# products


def eta_product(alpha: Iterable[int], beta: Iterable[int]) -> QSymElement:
    """Product of two enriched monomials.

    Sum over the C(n+m, m) ways of interleaving the parts of alpha and
    beta; for each interleaving gamma, the positions where a beta part is
    immediately followed by an alpha part (excluding the first and last
    slot) contribute an inclusion-exclusion over contractions:

        sum over I of (-1)^|I| eta_{gamma contracted at I}.

    The same index composition can arise from several interleavings; like
    terms are combined.  The sum is taken by the pair walk, whose steps are
    in bijection with the pairs (interleaving, contraction set).

    >>> eta_product((1, 2), (2,)) == QSymElement(
    ...     "eta", {(2, 1, 2): 1, (1, 2, 2): 2, (5,): -1})
    True
    """
    pair = (_code(tuple(alpha)), _code(tuple(beta)), 1)
    return _bilinear("eta", [pair], 1)


def multiply(a: QSymElement, b: QSymElement) -> QSymElement:
    """Product of two elements expressed in the same basis.

    The result carries the operand basis, except for K whose product is
    returned in eta (K only spans the peak subalgebra).
    """
    if a.basis != b.basis:
        raise ValueError(f"basis mismatch: {a.basis} vs {b.basis}; convert first")
    if a.basis == "K":
        a, b = convert(a, "eta"), convert(b, "eta")
    ta, tb = a._terms, b._terms
    pairs = ((ca, cb, va * vb) for ca, va in ta.items() for cb, vb in tb.items())
    return _bilinear(a.basis, pairs, a._den * b._den)


def _bilinear(basis: str, pairs, common: int) -> QSymElement:
    """Sum of coeff/common * (term ca times term cb) over (ca, cb, coeff), in M, L or eta.

    The coefficients are ints, so each pair's walk adds its multiplicities
    times coeff straight into one int accumulator (codes of distinct degrees
    never meet), and the sum over common is made canonical by ``_raw``.
    """
    acc: dict[int, int] = {}
    for ca, cb, coeff in pairs:
        _product_into(acc, coeff, basis, ca, cb)
    return _raw(basis, acc, common)


def _pair_walk(basis: str, ca: int, cb: int) -> dict[int, int]:
    """The product of the basis terms with codes ca and cb, as {code: multiplicity}:
    ``_product_into`` at scale 1 into an empty map.  No entry is 0: every
    path to gamma adds +1 in M and L, and in eta each contraction merges two
    parts into one, so every path adds (-1)^((l(alpha) + l(beta) - l(gamma))/2)."""
    out: dict[int, int] = {}
    _product_into(out, 1, basis, ca, cb)
    return out


def _product_into(acc: dict, scale, basis: str, ca: int, cb: int) -> None:
    """acc += scale * (the product of the basis terms with codes ca and cb),
    keyed by code, in M, L (``_shuffle_walk``) or eta.

    A walk over the grid of states (i, j): i parts of alpha and j parts of
    beta consumed.  Each state holds the partial products that reach it,
    merged by descent mask, so no product term is ever enumerated twice.
    The size output so far is fixed by (i, j), and every mask at (i, j) has
    its bits below that size minus 1, so a step that starts a new part sets
    a new top bit: the cut.  Each state's map is copied once with its cut
    applied, and a state's sources are merged by dict unpacking wherever
    their top bits differ, since such maps share no mask.  Only two sources
    at the same size need a summing loop.  The walk keeps one grid row at a
    time besides the one it builds, and is refused when the two hold more
    than ``_WALK_BUDGET`` entries (see ``_live_counter``).  Each operand is
    decoded once, to read its parts (L needs only the descent masks).  Row
    0 holds one partial product a state, the prefixes of beta, and is
    written directly.  Every mask carries the top bit of the product's size
    from the start, so the last state is added into acc as it is.  Steps
    per basis:

    - M: alpha_i, beta_j, or the quasi-shuffle merge alpha_i + beta_j,
      each as a new part.  The two single steps into (i, j) cut at the same
      size exactly when alpha_i = beta_j; the merge cuts lower.  Successors
      read only the cut maps, so a state keeps only its cut map.
    - eta: alpha_i or beta_j as a new part, or beta_j followed by alpha_i
      added to the previous part with sign -1 (the contraction; needs a
      previous part).  The contraction source is the map of (i-1, j-1),
      negated and not cut, so its top bit lies below both others and its
      masks are written by assignment.  A state keeps both its maps.
    - L: the shuffle rule, one letter per step, with alpha and beta read
      as words of |alpha| and |beta| letters whose descent sets are
      Des(alpha) and Des(beta), every letter of the second word larger
      than every letter of the first.  A first-word letter starts a new
      part after a second-word letter, or after a first-word letter at a
      descent of alpha; a second-word letter starts one only after a
      second-word letter at a descent of beta.  So each state has two maps,
      by which word the last letter came from, and the two merge by dict
      unpacking unless both cut or neither does.
    """
    if not ca or not cb:
        key = ca | cb
        acc[key] = acc.get(key, 0) + scale
        return
    if basis == "L":
        _shuffle_walk(acc, scale, ca, cb)
        return
    alpha, beta = _composition_of_code(ca), _composition_of_code(cb)
    size_a = list(itertools.accumulate(alpha, initial=0))
    size_b = list(itertools.accumulate(beta, initial=0))
    l, m = len(alpha), len(beta)
    eta = basis == "eta"
    live = _live_counter(basis, m, size_a[l] + size_b[m])
    # cuts[j] = the map at (i - 1, j) with its cut, and in eta flats[j] =
    # the map itself, while row i is built into row (and row_flats).  In
    # row 0 the map at (0, j) is the cut map at (0, j - 1).
    prefix = 1 << size_a[l] + size_b[m] - 1  # the top bit
    cuts: list[dict[int, int]] = [{prefix: 1}]
    for j in range(1, m + 1):
        prefix |= 1 << size_b[j] - 1
        cuts.append({prefix: 1})
        if live:
            live(cuts[-2], cuts[-1])
    if live:
        live()
    flats = [cuts[0], *cuts[:-1]] if eta else cuts
    for i in range(1, l + 1):
        part, vec = alpha[i - 1], cuts[0]
        row = [{mask | 1 << size_a[i] - 1: c for mask, c in vec.items()}]
        row_flats = [vec] if eta else row
        if live:
            live(vec, row[0])
        for j in range(1, m + 1):
            if part == beta[j - 1]:
                vec = dict(cuts[j])
                _add_into(vec, row[j - 1])
            else:
                vec = {**cuts[j], **row[j - 1]}
            if not eta:
                vec.update(cuts[j - 1])
            elif i + j > 2:
                for mask, c in flats[j - 1].items():
                    vec[mask] = -c
            if i == l and j == m:
                break
            cut = 1 << size_a[i] + size_b[j] - 1
            row.append({mask | cut: c for mask, c in vec.items()})
            if eta:
                row_flats.append(vec)
            if live:
                live(vec, row[j])
        if live:
            live()
        cuts, flats = row, row_flats
    _add_into(acc, vec, scale)


def _live_counter(basis: str, m: int, n: int):
    """None when a walk with m + 1 states a row, to a product of size n,
    cannot hold _WALK_BUDGET map entries: two rows of two maps a state, each
    map with at most 2^(n-1) masks.  Otherwise a function to call with the
    two maps (or None) of each state the walk stores after its start, and
    with no maps when a row is finished.  It keeps a running count of the
    row before and the current row so far, and refuses as soon as that
    passes the budget, so within one state's maps of it.  A finished row's
    count is the two rows' total, as a count taken once per row was."""
    if (m + 1) << n + 1 <= _WALK_BUDGET:
        return None
    before = now = 0

    def count(*maps):
        nonlocal before, now
        if not maps:
            before, now = now, 0
            return
        now += sum(map(len, filter(None, maps)))
        if before + now > _WALK_BUDGET:
            head = f"the {basis} product in degree {n} holds"
            raise _over_budget(head, before + now, "partial products at once", _WALK_BUDGET)

    return count


def _shuffle_walk(acc: dict, scale, ca: int, cb: int) -> None:
    """``_product_into`` in L: acc += scale * the shuffle product of two
    nonempty compositions.  The last state's two maps are added into acc."""
    l, m = ca.bit_length(), cb.bit_length()
    des_a, des_b = ca ^ 1 << l - 1, cb ^ 1 << m - 1
    live = _live_counter("L", m, l + m)
    top = 1 << l + m - 1
    # row[j] = (the maps that step into (i+1, j) with a first-word letter,
    # and into (i, j+1) with a second-word letter), for the current i.
    above: list[tuple[dict[int, int], dict[int, int]]] = []
    for i in range(l + 1):
        row: list[tuple[dict[int, int], dict[int, int]]] = []
        for j in range(m + 1):
            if not i and not j:
                row.append(({top: 1}, {top: 1}))
                continue
            last_a = above[j][0] if i else {}
            last_b = row[j - 1][1] if j else {}
            if i == l and j == m:
                break
            cut = 1 << (i + j - 1)
            b_cut = {mask | cut: c for mask, c in last_b.items()}
            to_a = to_b = None
            if i < l:
                if i and des_a >> (i - 1) & 1:
                    to_a = {mask | cut: c for mask, c in last_a.items()}
                    _add_into(to_a, b_cut)
                else:
                    to_a = {**last_a, **b_cut}
            if j < m:
                if j and des_b >> (j - 1) & 1:
                    to_b = {**last_a, **b_cut}
                else:
                    to_b = dict(last_a)
                    _add_into(to_b, last_b)
            row.append((to_a, to_b))
            if live:
                live(to_a, to_b)
        if live:
            live()
        above = row
    _add_into(acc, last_a, scale)
    _add_into(acc, last_b, scale)


# ---------------------------------------------------------------------------
# coproduct and antipode


def coproduct(a: QSymElement) -> TensorElement:
    """Coproduct; deconcatenation in the M and eta bases.

    In L, Delta L_alpha is the sum over k = 0..n of L on [k] tensor L on
    [n-k], with descent sets Des(alpha) cut at k.  K input returns an
    (eta, eta)-tensor.  No two deconcatenations of distinct (alpha, k)
    coincide, so M and eta copy their numerators and denominator; the L
    cuts do collide and are summed as ints over the input's denominator.
    Both end with ``_raw_tensor``.  On codes
    both are shifts and masks: cutting the code c at size k leaves c >> k
    on the right, and on the left the bits of c below k, with bit k-1 set
    (deconcatenation cuts only where it is already set).
    """
    if a.basis == "K":
        return coproduct(convert(a, "eta"))
    if a.basis != "L":
        acc = {}
        for code, coeff in a._terms.items():
            acc[0, code] = coeff
            rest = code
            while rest:
                low = rest & -rest
                acc[code & (low << 1) - 1, code >> low.bit_length()] = coeff
                rest ^= low
        return _raw_tensor((a.basis, a.basis), acc, a._den)
    sums: dict[tuple[int, int], int] = {}
    for code, coeff in a._terms.items():
        for k in range(code.bit_length() + 1):
            key = (code & (1 << k) - 1 | 1 << k >> 1, code >> k)
            sums[key] = sums.get(key, 0) + coeff
    return _raw_tensor(("L", "L"), sums, a._den)


def antipode(a: QSymElement) -> QSymElement:
    """The Hopf antipode: reverse every index, then apply the basis's own
    ``_LATTICE`` entry.

    M:   S(M_alpha) = (-1)^len(alpha) * sum of M_gamma over coarsenings of
         the reversal.
    eta: S(eta_alpha) = (-1)^len(alpha) * eta_reversed(alpha).
    L:   S(L_alpha) = (-1)^|alpha| * L_complement(alpha).
    K:   routed through eta; the result carries the eta tag.
    """
    if a.basis == "K":
        return antipode(convert(a, "eta"))
    flipped = {_reversed_code(code): coeff for code, coeff in a._terms.items()}
    flipped = _element(a.basis, flipped, a._den)
    return _lattice_transform(flipped, a.basis)


# ---------------------------------------------------------------------------
# generic conversion


_H = Fraction(1, 2)
_MASK_BUDGET = 1 << 21  # subset masks in one degree of a transform's output
_DENSE_SHARE = 4  # a degree with support >= 1/_DENSE_SHARE of its masks runs on a list

# (source, target): (matrix, scale).  Entry [a][b] of the matrix is the
# factor from source bit a to target bit b of a subset bitmask; every
# component of degree n >= 1 is multiplied by scale on top.  M, L and eta
# index a component by its descent set; K and its eta image by its peak set
# (peak p is bit p-1).  A diagonal entry is the antipode of that basis,
# applied to the reversed indices.
_LATTICE = {
    ("eta", "M"): (((1, 0), (1, 2)), 2),
    ("M", "eta"): (((1, 0), (-_H, _H)), _H),
    ("L", "M"): (((1, 1), (0, 1)), 1),
    ("M", "L"): (((1, -1), (0, 1)), 1),
    ("eta", "L"): (((1, -1), (1, 1)), 2),
    ("L", "eta"): (((_H, _H), (-_H, _H)), _H),
    ("K", "eta"): (((1, 0), (1, -1)), 1),
    ("eta", "K"): (((1, 0), (1, -1)), 1),
    ("M", "M"): (((1, 0), (-1, -1)), -1),
    ("eta", "eta"): (((1, 0), (0, -1)), -1),
    ("L", "L"): (((0, -1), (-1, 0)), -1),
}


@lru_cache(maxsize=len(_LATTICE))
def _int_lattice(source: str, target: str) -> tuple[tuple, int, int, int]:
    """The ``_LATTICE`` entry (source, target) in ints: the matrix rows over
    one common denominator, that denominator, and the scale's numerator and
    denominator.  Built on first use, so the import builds no table."""
    matrix, scale = _LATTICE[source, target]
    den = math.lcm(*(x.denominator for row in matrix for x in row))
    rows = tuple(tuple(int(x * den) for x in row) for row in matrix)
    return rows, den, scale.numerator, scale.denominator


def _over_budget(head: str, count: int, tail: str, budget: int) -> ValueError:
    """The refusal of work sized at count, past budget: every work budget's
    message.  A count of more than 20 digits is written as the power of two
    at or above it, which keeps the line short and within Python's limit
    on int-to-str conversion."""
    shown = count if count < 10**20 else f"2^{(count - 1).bit_length()}"
    return ValueError(f"{head} {shown} {tail}, over the budget of {budget}")


def _lattice_transform(a: QSymElement, target: str, then: str | None = None) -> QSymElement:
    """Apply the ``_LATTICE`` entry (a.basis, target) to an element.

    Each homogeneous component of degree n is a sparse vector indexed by
    subset bitmasks over [n-1] (peak sets when K is one of the two bases,
    descent sets otherwise), and the map is the (n-1)-fold tensor power of
    one 2x2 matrix, applied one bit at a time (Yates' algorithm): to the
    current support of a dict, or, when the support holds at least
    1/_DENSE_SHARE of the masks, to a list indexed by mask, whose output
    keys are its indices with the top bit set.  The butterflies run on the
    stored numerators; degree n's output lies over the input's denominator
    times den^(n-1) and the scale's denominator (den the matrix's), and the
    degrees are scaled to the lcm of those before ``_raw`` makes the sum
    canonical.  A degree with more than _MASK_BUDGET masks is sized before
    any pass: a bit whose matrix row has two nonzero
    entries at most doubles a mask's image, and the transform is refused
    when the images' sizes sum past the budget.

    ``then`` names the basis, M or L, that a K to eta transform's result
    goes to next.  Every degree-n K term's eta image holds eta[1^n] (peak
    set empty) with the term's coefficient, and the M and L images of
    eta[1^n] have all 2^(n-1) masks; every eta term's L image has them
    too.  So the second stage's refusal is raised here, word for word,
    before the first stage runs: in the first degree it would size, to L
    always, and to M unless that degree's coefficients sum to zero.
    """
    rows, den, scale_num, scale_den = _int_lattice(a.basis, target)
    peaks = "K" in (a.basis, target)
    by_degree: dict[int, dict[int, int]] = {}
    for code, coeff in a._terms.items():
        n = code.bit_length()
        mask = _peaks_of_code(code) if peaks else code ^ 1 << n >> 1
        by_degree.setdefault(n, {})[mask] = coeff
    for n, component in by_degree.items():
        if n and 1 << n - 1 > _MASK_BUDGET:
            split_low, split_high = (all(row) for row in rows)
            highs = (m.bit_count() for m in component)
            images = (1 << split_high * k + split_low * (n - 1 - k) for k in highs)
            bound = min(sum(images), 1 << n - 1)
            if bound > _MASK_BUDGET:
                what = "the antipode" if a.basis == target else f"{a.basis} to {target}"
                head = f"{what} in degree {n} needs up to"
                raise _over_budget(head, bound, "subset masks", _MASK_BUDGET)
    for n, component in by_degree.items() if then else ():
        if n and 1 << n - 1 > _MASK_BUDGET:
            if then == "L" or sum(component.values()):
                head = f"eta to {then} in degree {n} needs up to"
                raise _over_budget(head, 1 << n - 1, "subset masks", _MASK_BUDGET)
            break
    pieces = []  # (denominator, scale numerator, {code: numerator}) per degree
    for n, component in by_degree.items():
        if n == 0:
            pieces.append((a._den, 1, component))
            continue
        if len(component) * _DENSE_SHARE >= 1 << n - 1:
            items = enumerate(_yates_list(component, n - 1, rows))
        else:
            items = _yates_dict(component, n - 1, rows).items()
        if peaks:
            codes = {_code_of_peaks(n, m): v for m, v in items if v}
        else:
            top = 1 << n - 1
            codes = {m | top: v for m, v in items if v}
        pieces.append((scale_den * a._den * den ** (n - 1), scale_num, codes))
    common = math.lcm(*(d for d, _, _ in pieces))
    out: dict[int, int] = {}
    for d, num, codes in pieces:
        factor = num * (common // d)
        out.update(codes if factor == 1 else {c: v * factor for c, v in codes.items()})
    return _raw(target, out, common)


def _yates_dict(vec: dict[int, int], bits: int, rows) -> dict[int, int]:
    """Yates' algorithm on a sparse vector {mask: value}: one pass per bit
    over the current support."""
    for i in range(bits):
        bit = 1 << i
        nxt: dict[int, int] = {}
        for m, v in vec.items():
            if not v:
                continue
            to_low, to_high = rows[1] if m & bit else rows[0]
            if to_low:
                low = m & ~bit
                nxt[low] = nxt.get(low, 0) + to_low * v
            if to_high:
                high = m | bit
                nxt[high] = nxt.get(high, 0) + to_high * v
        vec = nxt
    return vec


def _yates_list(vec: dict[int, int], bits: int, rows) -> list[int]:
    """Yates' algorithm on the full list indexed by mask.  Each pass reads
    bit 0 as the halves v[0::2] and v[1::2] and writes the new bit as the
    top one, low half first, so after ``bits`` passes every bit is back in
    place."""
    values = [0] * (1 << bits)
    for m, v in vec.items():
        values[m] = v
    (low_from_low, high_from_low), (low_from_high, high_from_high) = rows
    for _ in range(bits):
        lo, hi = values[0::2], values[1::2]
        values = _combined(low_from_low, lo, low_from_high, hi)
        values += _combined(high_from_low, lo, high_from_high, hi)
    return values


def _combined(p: int, xs: list[int], q: int, ys: list[int]) -> list[int]:
    """p*xs + q*ys entrywise: xs or ys itself when that is the sum, else a
    new list."""
    if not p:
        p, xs, q, ys = q, ys, p, xs
    if not q:
        return xs if p == 1 else list(map(operator.neg, xs)) if p == -1 else [p * x for x in xs]
    if p == 1 and q in (1, -1):
        return list(map(operator.add if q == 1 else operator.sub, xs, ys))
    if p == -1 and q == 1:
        return list(map(operator.sub, ys, xs))
    return [p * x + q * y for x, y in zip(xs, ys)]


def convert(a: QSymElement, target: str) -> QSymElement:
    """Rewrite an element in another basis, exactly.

    K converts to and from eta only, so every other pair with K goes
    through eta; K to M or L is sized for both stages before the first
    runs (see ``_lattice_transform``).  Raises NotInPeakSpanError,
    carrying the eta terms that have an even part, when the target is K
    and the element does not lie in the peak subalgebra.

    >>> convert(QSymElement.term("eta", (1, 3, 1)), "M")
    QSymElement(2*M[5] + 4*M[1, 4] + 4*M[4, 1] + 8*M[1, 3, 1])
    >>> convert(QSymElement.term("K", (3,)), "eta")
    QSymElement(-1*eta[3] + 1*eta[1, 1, 1])
    """
    _check_basis(target)
    if a.basis == target:
        return a
    if a.basis == "K" and target != "eta":
        return convert(_lattice_transform(a, "eta", then=target), target)
    if target == "K" and a.basis != "eta":
        return convert(convert(a, "eta"), target)
    if target == "K":
        residual = {c: v for c, v in a._terms.items() if not _is_odd_code(c)}
        if residual:
            raise NotInPeakSpanError(_raw("eta", residual, a._den))
    return _lattice_transform(a, target)
