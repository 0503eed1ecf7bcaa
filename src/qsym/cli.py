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

Elements are read a whole term per regex match; the token parser reads the
rest and reports every error.  ``--format json`` is written per shape
straight from the sorted terms, in the bytes ``json.dumps(indent=2)`` gives.

The argv grammar is written once, as data in ``_GRAMMAR``.  ``_argv_table``
reads its entries into the table that ``main`` reads plain argvs from, and
``build_parser`` adds the same entries to argparse, which reads every other
argv.  argparse is imported, and its parser built, only for such an argv.
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction
from types import SimpleNamespace
from typing import TYPE_CHECKING

from .core import BASES, QSymElement, TensorElement, _signed_sum, format_rational
from .core import antipode, convert, coproduct, multiply
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

if TYPE_CHECKING:
    import argparse


class ElementParseError(ValueError):
    def __init__(self, message: str, position: int):
        self.position = position
        super().__init__(f"{message} (at position {position})")


# One pass over the text: a token, a run of whitespace, or any other
# character, which is the first one the grammar cannot read.  Only texts
# _TERM_RE cannot read get here, so re compiles it on first use, not at import.
_TOKEN_PATTERN = r"(\d+|[A-Za-z]+|[\[\],*+/-])|\s+|(\S)"


def _tokenize(text: str) -> list[tuple[str, int]]:
    tokens = []
    for match in re.finditer(_TOKEN_PATTERN, text):
        kind = match.lastindex
        if kind == 1:
            tokens.append((match[1], match.start()))
        elif kind:
            raise ElementParseError(f"unexpected character {match[2]!r}", match.start())
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


# One whole term (sign, numerator, denominator, basis, parts), \s between tokens.
_TERM_RE = re.compile(
    r"\s*([+-]?)\s*(?:(\d+)\s*(?:/\s*(\d+)\s*)?\*\s*)?(M|L|K|eta)\s*"
    r"\[\s*((?:\d+\s*(?:,\s*\d+\s*)*)?)\]\s*"
)


def _read_element(text: str) -> QSymElement | None:
    """``text`` read a whole term per match; None for a term the pattern does not
    match, a later term with no sign, mixed bases, a zero denominator, or a number
    ``int`` refuses (past its digit limit, or next to \\x1c-\\x1f, which ``\\s`` matches)."""
    basis, terms, pos = None, [], 0
    while pos < len(text) or not terms:
        match = _TERM_RE.match(text, pos)
        if match is None or terms and (not match[1] or match[4] != basis):
            return None
        sign, num, den, basis, parts = match.groups()
        try:
            value = -int(num or 1) if sign == "-" else int(num or 1)
            coeff = Fraction(value, int(den)) if den else Fraction(value)
            comp = tuple(map(int, parts.split(","))) if parts else ()
        except (ValueError, ZeroDivisionError):
            return None
        terms.append((comp, coeff))
        pos = match.end()
    return QSymElement(basis, terms)


def parse_element(text: str) -> QSymElement:
    """Parse the element grammar; raises ElementParseError with a position.
    ``_read_element`` reads most texts, and ``_ElementParser`` every other
    one the grammar allows; it reports every error."""
    elem = _read_element(text)
    return _ElementParser(text).parse() if elem is None else elem


def _basis_term(basis: str, comp) -> str:
    return f"{basis}[{','.join(str(p) for p in comp)}]"


def format_element(elem: QSymElement) -> str:
    """Canonical text form; ``parse_element`` round-trips it."""
    return _signed_sum(
        elem._sorted_items(),
        lambda comp: _basis_term(elem.basis, comp),
        f"0*{elem.basis}[]",
        elem._den,
    )


def format_tensor(tensor: TensorElement) -> str:
    lb, rb = tensor.bases
    return _signed_sum(
        tensor._sorted_items(),
        lambda pair: f"{_basis_term(lb, pair[0])} (x) {_basis_term(rb, pair[1])}",
        "0",
        tensor._den,
    )


def _int(what: str, text: str, piece: str) -> int:
    """A piece of an argument as an int; the ValueError names both."""
    try:
        return int(piece)
    except ValueError:
        raise ValueError(f"{what} {text!r}: cannot read {piece!r} as an integer") from None


def parse_permutation(text: str) -> tuple[int, ...]:
    word = text.strip()
    if " " in word or "," in word:
        word = word.replace(",", " ").split()
    return tuple(_int("permutation", text, letter) for letter in word)


def parse_composition(text: str) -> tuple[int, ...]:
    parts = text.strip()
    return tuple(_int("composition", text, p) for p in parts.split(",")) if parts else ()


def _resolve_alphabet(zspec: str, nvars_arg: int | None, default_n: int):
    """Alphabet plus the nvars to pass on (None lets gamma pick the magnitude)."""
    if zspec in ("P", "Ppm"):
        n = nvars_arg if nvars_arg is not None else default_n
        return (positive_alphabet if zspec == "P" else signed_alphabet)(n), n
    return tuple(_int("--zset", zspec, z) for z in zspec.split(",")), nvars_arg


def _json_list(items: list, indent: str) -> str:
    """A list whose items are already written, at ``indent``."""
    inner = "\n" + indent + "  "
    return f"[{inner}{(',' + inner).join(items)}\n{indent}]" if items else "[]"


def _json_comp(comp) -> str:
    return _json_list([str(part) for part in comp], "      ")


def _json_exps(key) -> str:
    return _json_list([f"[\n          {v},\n          {e}\n        ]" for v, e in key], "      ")


def _print_json(value) -> None:
    """Print an element, a tensor or a polynomial as ``--format json``: the
    bytes of ``json.dumps(value.to_json_dict(), indent=2)``, one f-string
    per sorted term (basis names and coefficients need no escaping).  An
    element's or tensor's coefficient is written from its numerator and
    ``_den``, so no Fraction is built."""
    if isinstance(value, QSymElement):
        head = f'"basis": "{value.basis}"'
        terms = [
            f'{{\n      "comp": {_json_comp(comp)},\n'
            f'      "coeff": "{format_rational(num, value._den)}"\n    }}'
            for comp, num in value._sorted_items()
        ]
    elif isinstance(value, TensorElement):
        head = '"basis": ' + _json_list([f'"{b}"' for b in value.bases], "  ")
        terms = [
            f'{{\n      "comp_left": {_json_comp(left)},\n'
            f'      "comp_right": {_json_comp(right)},\n'
            f'      "coeff": "{format_rational(num, value._den)}"\n    }}'
            for (left, right), num in value._sorted_items()
        ]
    else:
        head = f'"nvars": {value.nvars},\n  "degree": {value.degree}'
        terms = [
            f'{{\n      "exps": {_json_exps(key)},\n'
            f'      "coeff": "{format_rational(coeff)}"\n    }}'
            for key, coeff in value.sorted_terms()
        ]
    print(f'{{\n  {head},\n  "terms": {_json_list(terms, "  ")}\n}}')


def _emit_element(elem: QSymElement, fmt: str) -> None:
    if fmt == "json":
        _print_json(elem)
    else:
        print(format_element(elem))


def _emit_poly(poly: TruncatedPoly, fmt: str) -> None:
    if fmt == "json":
        _print_json(poly)
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
        _print_json(tensor)
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
    import json

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


# The argv grammar, written once: per verb, its help text, its command and its
# arguments in ``--help`` order as (name, ``add_argument`` keywords).
_ELEMENT = ("element", {})
_FORMAT = ("--format", dict(choices=("text", "json"), default="text"))
_TO = ("--to", dict(choices=BASES, help="convert the result"))
_GRAMMAR = {
    "convert": ("rewrite an element in another basis", _cmd_convert, [
        _ELEMENT, ("--to", dict(choices=BASES, required=True)), _FORMAT]),
    "multiply": ("product of two elements", _cmd_multiply, [
        ("left", {}), ("right", {}),
        ("--basis", dict(choices=BASES, help="convert both operands first")), _TO, _FORMAT]),
    "coproduct": ("coproduct of an element", _cmd_coproduct, [_ELEMENT, _FORMAT]),
    "antipode": ("antipode of an element", _cmd_antipode, [_ELEMENT, _TO, _FORMAT]),
    "expand": ("truncated polynomial expansion", _cmd_expand, [
        _ELEMENT,
        ("--nvars", dict(type=int, help="variable count (default: element degree)")),
        ("--degree", dict(type=int, help="degree bound (default: element degree)")),
        _FORMAT]),
    "gamma": ("generating function of a weighted poset", _cmd_gamma, [
        ("--poset", dict(required=True, metavar="FILE", help="poset JSON file")),
        ("--zset", dict(required=True, help="P, Ppm, or an explicit list "
                        "(use --zset=-1,+1,-2 for leading minus)")),
        ("--nvars", dict(type=int, help="variable count (default: total weight)")),
        _FORMAT]),
    "u-function": ("weighted-chain generating function; symbolic eta expansion "
                   "when --zset is omitted", _cmd_u_function, [
        ("permutation", dict(help="one-line word, e.g. '1 3 2'")),
        ("composition", dict(help="comma-separated parts, e.g. '1,1,1'")),
        ("--zset", dict(help="P, Ppm, or an explicit list")),
        ("--nvars", dict(type=int, help="variable count (default: |composition|)")),
        _FORMAT]),
    "verify": ("run the bundled identity suite", _cmd_verify, [
        ("--max-degree", dict(type=int, help="cap the per-check sweep bounds "
                              "(default: full bounds)"))]),
}


def build_parser() -> argparse.ArgumentParser:
    """A new parser on every call, so changing it never reaches ``main``:
    one subparser per ``_GRAMMAR`` entry, its arguments added in order.
    argparse is imported here, so a process that never calls this never
    loads it."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="qsym",
        description="Exact computer algebra for quasisymmetric functions "
        "(bases M, L, K, eta).",
    )
    sub = parser.add_subparsers(dest="verb", required=True)
    for verb, (text, func, arguments) in _GRAMMAR.items():
        p = sub.add_parser(verb, help=text)
        for name, keywords in arguments:
            p.add_argument(name, **keywords)
        p.set_defaults(func=func)
    return parser


def _argv_table(grammar: dict = _GRAMMAR) -> dict:
    """Per verb of ``grammar``: option string -> (dest, type, choices), the
    positionals' (dest, type, choices) in order, the required options'
    dests, and the Namespace before any argument is read (the verb, ``func``
    and each option's default).  An option's dest is derived as argparse
    derives it: its name without the leading dashes, "-" read as "_".  A
    verb with an ``action`` or ``nargs`` keyword is left out, and argparse
    parses all of its argvs."""
    table = {}
    for verb, (_, func, arguments) in grammar.items():
        if any("action" in kw or "nargs" in kw for _, kw in arguments):
            continue
        options, positionals, required = {}, [], set()
        start = {"verb": verb, "func": func}
        for name, kw in arguments:
            if name[:1] != "-":
                positionals.append((name, kw.get("type"), kw.get("choices")))
                continue
            dest = name.lstrip("-").replace("-", "_")
            options[name] = (dest, kw.get("type"), kw.get("choices"))
            start[dest] = kw.get("default")
            if kw.get("required"):
                required.add(dest)
        table[verb] = (options, positionals, required, start)
    return table


def _plain(arg: str) -> bool:
    """Whether argparse reads ``arg`` as a value: it does not start with
    "-", or it starts with "- " (no option string here does, and argparse
    reads a string with a space that names no option as a value)."""
    return arg[:1] != "-" or arg[:2] == "- "


def _typed(spec, text: str):
    """text as its spec's type, in its choices; else ValueError, or what the
    type raises, which is ``int``'s: ``_GRAMMAR`` names no other type."""
    _, kind, choices = spec
    value = text if kind is None else kind(text)
    if choices is not None and value not in choices:
        raise ValueError(text)
    return value


def _table_args(argv: list, table: dict) -> SimpleNamespace | None:
    """The attributes of ``parse_args(argv)`` of the parser ``table`` was
    read from, for a plain argv: a verb in the table, then values and
    ``--option value`` or ``--option=value`` pairs with exact option names,
    every value typed and in its choices, every positional filled once and
    every required option given.  None for any other argv (help, ``--``,
    abbreviations, unknown options, values that start with "-" but not
    "- ", usage errors): those are argparse's to decide, so its texts and
    exit codes stay its own.
    """
    entry = table.get(argv[0]) if argv else None
    if entry is None:
        return None
    options, positionals, required, start = entry
    pairs, given = [], []
    args = iter(argv[1:])
    for arg in args:
        if _plain(arg):
            given.append(arg)
            continue
        name, eq, text = arg.partition("=")
        spec = options.get(name)
        if spec is None:
            return None
        if not eq:
            text = next(args, "-")  # "-" when argv ends: argparse reports it
            if not _plain(text):
                return None
        pairs.append((spec, text))
    if len(given) != len(positionals):
        return None
    pairs += zip(positionals, given)
    try:
        values = {spec[0]: _typed(spec, text) for spec, text in pairs}
    except (TypeError, ValueError):
        return None
    if not required <= values.keys():
        return None
    return SimpleNamespace(**{**start, **values})


_VERBS: dict | None = None  # _argv_table(), built on the first call of main
_PARSER: argparse.ArgumentParser | None = None  # built for the first argv _VERBS cannot read


def main(argv=None) -> int:
    """Run one command.

    A plain argv is read from ``_VERBS``, the argv table, built from
    ``_GRAMMAR`` on the first call.  Every other argv goes to
    ``_PARSER.parse_args``; that parser is built from the same grammar the
    first time such an argv comes, so a process of plain requests never
    loads argparse.  Both routes give the same attributes, and help and
    usage errors stay argparse's own.
    """
    global _PARSER, _VERBS
    if _VERBS is None:
        _VERBS = _argv_table()
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _table_args(argv, _VERBS)
    if args is None:
        if _PARSER is None:
            _PARSER = build_parser()
        args = _PARSER.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
