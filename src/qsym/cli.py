"""Command-line front end.

Element grammar (whitespace optional)::

    element := ["+"|"-"] term (("+"|"-") term)*
    term    := [coeff "*"] basis "[" parts "]"
    coeff   := integer | integer "/" integer
    basis   := "M" | "L" | "K" | "eta"
    parts   := empty | int ("," int)*

Examples: ``2*M[5] + 4*M[1,4]``, ``eta[1,3,1]``, ``1/2*eta[1] - L[2,1]``.
Permutations are one-line words (``1 4 2 5 3``, or ``142`` when single
digits suffice); compositions are comma-separated parts (``1,3,1``, empty
for the empty composition).  Output is deterministic: canonical term
order and canonical rational formatting.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from fractions import Fraction

from .core import BASES, QSymElement, TensorElement, antipode, convert, coproduct, format_rational, multiply
from .expansion import TruncatedPoly, expand, format_poly
from .ppartitions import (
    LabelledWeightedPoset,
    gamma,
    positive_alphabet,
    signed_alphabet,
    universal_gamma,
    universal_to_eta,
)
from .verification import run_all


class ElementParseError(ValueError):
    def __init__(self, message: str, position: int):
        self.position = position
        super().__init__(f"{message} (at position {position})")


_TOKEN_RE = re.compile(r"(\d+|[A-Za-z]+|[\[\],*+/-])")


def _tokenize(text: str) -> list[tuple[str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        if text[pos].isspace():
            pos += 1
            continue
        match = _TOKEN_RE.match(text, pos)
        if not match:
            raise ElementParseError(f"unexpected character {text[pos]!r}", pos)
        tokens.append((match.group(0), pos))
        pos = match.end()
    return tokens


class _ElementParser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.index = 0

    def _peek(self):
        return self.tokens[self.index][0] if self.index < len(self.tokens) else None

    def _pos(self) -> int:
        if self.index < len(self.tokens):
            return self.tokens[self.index][1]
        return len(self.text)

    def _take(self):
        token = self.tokens[self.index]
        self.index += 1
        return token[0]

    def parse(self) -> QSymElement:
        sign = 1
        if self._peek() in ("+", "-"):
            sign = -1 if self._take() == "-" else 1
        basis, terms = None, []
        basis, comp, coeff = self._term()
        terms.append((comp, sign * coeff))
        while self._peek() is not None:
            sep = self._take()
            if sep not in ("+", "-"):
                raise ElementParseError(f"expected '+' or '-', got {sep!r}", self._pos())
            sign = -1 if sep == "-" else 1
            term_basis, comp, coeff = self._term()
            if term_basis != basis:
                raise ElementParseError(
                    f"mixed bases {basis} and {term_basis} in one element", self._pos()
                )
            terms.append((comp, sign * coeff))
        return QSymElement(basis, terms)

    def _term(self):
        coeff = Fraction(1)
        token = self._peek()
        if token is None:
            raise ElementParseError("expected a term", self._pos())
        if token.isdigit():
            num = int(self._take())
            if self._peek() == "/":
                self._take()
                den = self._peek()
                if den is None or not den.isdigit():
                    raise ElementParseError("expected a denominator", self._pos())
                if int(den) == 0:
                    raise ElementParseError("zero denominator", self._pos())
                coeff = Fraction(num, int(self._take()))
            else:
                coeff = Fraction(num)
            if self._peek() != "*":
                raise ElementParseError("expected '*' after the coefficient", self._pos())
            self._take()
        basis = self._peek()
        if basis not in BASES:
            raise ElementParseError(
                f"expected a basis name {BASES}, got {basis!r}", self._pos()
            )
        self._take()
        if self._peek() != "[":
            raise ElementParseError("expected '['", self._pos())
        self._take()
        parts = []
        if self._peek() != "]":
            while True:
                part = self._peek()
                if part is None or not part.isdigit():
                    raise ElementParseError("expected a composition part", self._pos())
                parts.append(int(self._take()))
                nxt = self._peek()
                if nxt == ",":
                    self._take()
                    continue
                break
        if self._peek() != "]":
            raise ElementParseError("expected ']'", self._pos())
        self._take()
        return basis, tuple(parts), coeff


def parse_element(text: str) -> QSymElement:
    """Parse the element grammar; raises ElementParseError with a position."""
    return _ElementParser(text).parse()


def _signed_sum(items, body, zero: str) -> str:
    """``a + 2*b - c`` from (key, coeff) items, ``body(key)`` naming each term."""
    pieces = []
    for key, coeff in items:
        mag = abs(coeff)
        text = body(key) if mag == 1 else f"{format_rational(mag)}*{body(key)}"
        if pieces:
            pieces.append(f" {'+' if coeff > 0 else '-'} {text}")
        else:
            pieces.append(text if coeff > 0 else f"-{text}")
    return "".join(pieces) or zero


def _basis_term(basis: str, comp) -> str:
    return f"{basis}[{','.join(str(p) for p in comp)}]"


def format_element(elem: QSymElement) -> str:
    """Canonical text form; ``parse_element`` round-trips it."""
    return _signed_sum(
        elem.sorted_terms(), lambda comp: _basis_term(elem.basis, comp), f"0*{elem.basis}[]"
    )


def format_tensor(tensor: TensorElement) -> str:
    lb, rb = tensor.bases
    return _signed_sum(
        tensor.sorted_terms(),
        lambda pair: f"{_basis_term(lb, pair[0])} (x) {_basis_term(rb, pair[1])}",
        "0",
    )


def parse_permutation(text: str) -> tuple[int, ...]:
    text = text.strip()
    if not text:
        return ()
    if " " in text or "," in text:
        return tuple(int(x) for x in text.replace(",", " ").split())
    return tuple(int(ch) for ch in text)


def parse_composition(text: str) -> tuple[int, ...]:
    text = text.strip()
    if not text:
        return ()
    return tuple(int(x) for x in text.split(","))


def parse_zset(zspec: str, nvars: int) -> tuple[int, ...]:
    if zspec == "P":
        return positive_alphabet(nvars)
    if zspec == "Ppm":
        return signed_alphabet(nvars)
    return tuple(int(x) for x in zspec.split(","))


def _resolve_alphabet(zspec: str, nvars_arg: int | None, default_n: int):
    """Alphabet plus the nvars to pass on (None lets gamma pick the magnitude)."""
    if zspec in ("P", "Ppm"):
        n = nvars_arg if nvars_arg is not None else default_n
        return parse_zset(zspec, n), n
    return parse_zset(zspec, 0), nvars_arg


def _print_json(data: dict) -> None:
    print(json.dumps(data, indent=2))


def _emit_element(elem: QSymElement, fmt: str) -> None:
    if fmt == "json":
        _print_json(elem.to_json_dict())
    else:
        print(format_element(elem))


def _emit_poly(poly: TruncatedPoly, fmt: str) -> None:
    if fmt == "json":
        _print_json(poly.to_json_dict())
    else:
        print(format_poly(poly))


# ---------------------------------------------------------------------------
# subcommands


def _cmd_convert(args) -> int:
    elem = parse_element(args.element)
    _emit_element(convert(elem, args.to), args.format)
    return 0


def _cmd_multiply(args) -> int:
    a = parse_element(args.left)
    b = parse_element(args.right)
    if args.basis:
        a = convert(a, args.basis)
        b = convert(b, args.basis)
    result = multiply(a, b)
    if args.to:
        result = convert(result, args.to)
    _emit_element(result, args.format)
    return 0


def _cmd_coproduct(args) -> int:
    tensor = coproduct(parse_element(args.element))
    if args.format == "json":
        _print_json(tensor.to_json_dict())
    else:
        print(format_tensor(tensor))
    return 0


def _cmd_antipode(args) -> int:
    result = antipode(parse_element(args.element))
    if args.to:
        result = convert(result, args.to)
    _emit_element(result, args.format)
    return 0


def _cmd_expand(args) -> int:
    elem = parse_element(args.element)
    nvars = args.nvars if args.nvars is not None else elem.degree
    _emit_poly(expand(elem, nvars, args.degree), args.format)
    return 0


def _load_poset(path: str) -> LabelledWeightedPoset:
    with open(path, encoding="utf-8") as handle:
        return LabelledWeightedPoset.from_json_dict(json.load(handle))


def _cmd_gamma(args) -> int:
    poset = _load_poset(args.poset)
    alphabet, nvars = _resolve_alphabet(args.zset, args.nvars, sum(poset.weights))
    _emit_poly(gamma(poset, alphabet, nvars), args.format)
    return 0


def _cmd_u_function(args) -> int:
    pi = parse_permutation(args.permutation)
    alpha = parse_composition(args.composition)
    if args.zset is None:
        _emit_element(universal_to_eta(pi, alpha), args.format)
        return 0
    alphabet, nvars = _resolve_alphabet(args.zset, args.nvars, sum(alpha))
    _emit_poly(universal_gamma(pi, alpha, alphabet, nvars), args.format)
    return 0


def _cmd_verify(args) -> int:
    if args.max_degree is not None and args.max_degree < 1:
        raise ValueError(f"--max-degree must be at least 1, got {args.max_degree}")
    results = run_all(args.max_degree)
    for res in results:
        for line in res.lines():
            print(line)
    failed = sum(1 for res in results if not res.passed)
    print(f"{len(results) - failed}/{len(results)} checks passed")
    return 1 if failed else 0


def build_parser() -> argparse.ArgumentParser:
    """A new parser on every call, so changing it never reaches ``main``."""
    parser = argparse.ArgumentParser(
        prog="qsym",
        description="Exact computer algebra for quasisymmetric functions "
        "(bases M, L, K, eta).",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    def add_format(p):
        p.add_argument("--format", choices=("text", "json"), default="text")

    p = sub.add_parser("convert", help="rewrite an element in another basis")
    p.add_argument("element")
    p.add_argument("--to", choices=BASES, required=True)
    add_format(p)
    p.set_defaults(func=_cmd_convert)

    p = sub.add_parser("multiply", help="product of two elements")
    p.add_argument("left")
    p.add_argument("right")
    p.add_argument("--basis", choices=BASES, help="convert both operands first")
    p.add_argument("--to", choices=BASES, help="convert the result")
    add_format(p)
    p.set_defaults(func=_cmd_multiply)

    p = sub.add_parser("coproduct", help="coproduct of an element")
    p.add_argument("element")
    add_format(p)
    p.set_defaults(func=_cmd_coproduct)

    p = sub.add_parser("antipode", help="antipode of an element")
    p.add_argument("element")
    p.add_argument("--to", choices=BASES, help="convert the result")
    add_format(p)
    p.set_defaults(func=_cmd_antipode)

    p = sub.add_parser("expand", help="truncated polynomial expansion")
    p.add_argument("element")
    p.add_argument("--nvars", type=int, help="variable count (default: element degree)")
    p.add_argument("--degree", type=int, help="degree bound (default: element degree)")
    add_format(p)
    p.set_defaults(func=_cmd_expand)

    p = sub.add_parser("gamma", help="generating function of a weighted poset")
    p.add_argument("--poset", required=True, metavar="FILE", help="poset JSON file")
    p.add_argument(
        "--zset",
        required=True,
        help="P, Ppm, or an explicit list (use --zset=-1,+1,-2 for leading minus)",
    )
    p.add_argument("--nvars", type=int, help="variable count (default: total weight)")
    add_format(p)
    p.set_defaults(func=_cmd_gamma)

    p = sub.add_parser(
        "u-function",
        help="weighted-chain generating function; symbolic eta expansion "
        "when --zset is omitted",
    )
    p.add_argument("permutation", help="one-line word, e.g. '1 3 2'")
    p.add_argument("composition", help="comma-separated parts, e.g. '1,1,1'")
    p.add_argument("--zset", help="P, Ppm, or an explicit list")
    p.add_argument("--nvars", type=int, help="variable count (default: |composition|)")
    add_format(p)
    p.set_defaults(func=_cmd_u_function)

    p = sub.add_parser("verify", help="run the bundled identity suite")
    p.add_argument(
        "--max-degree",
        type=int,
        default=None,
        help="cap the per-check sweep bounds (default: full bounds)",
    )
    p.set_defaults(func=_cmd_verify)

    return parser


_PARSER: argparse.ArgumentParser | None = None


def main(argv=None) -> int:
    """Run one command; every call in a process parses with one private parser."""
    global _PARSER
    if _PARSER is None:
        _PARSER = build_parser()
    args = _PARSER.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
