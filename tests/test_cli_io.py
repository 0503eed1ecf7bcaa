"""The CLI's fast element reader and its JSON writers against independent
references: the token parser, and ``json.dumps`` of ``to_json_dict``."""

import io
import json
import random
from contextlib import redirect_stdout
from fractions import Fraction

import pytest

from qsym import cli
from qsym.cli import _ElementParser, _read_element, format_element, parse_element
from qsym.combinatorics import compositions
from qsym.core import BASES, QSymElement, TensorElement, coproduct
from qsym.expansion import TruncatedPoly, expand

from cli_session import CLI_SESSION

# Whitespace the tokenizer skips; \x1c-\x1f, which int() does not strip next
# to a part, are left to the mutations below.
_SPACES = ["", " ", "  ", "\t", "\n", "\u00a0", "\u2003"]
_MUTATION_CHARS = "0123456789+-*/[],MLKetax &.\x1c "


def _random_element(rng: random.Random, basis: str) -> QSymElement:
    terms = []
    for _ in range(rng.randint(0, 4)):
        comps = list(compositions(rng.randint(0, 5)))
        if basis == "K":
            comps = [c for c in comps if all(p % 2 for p in c)]
        coeff = rng.choice([rng.randint(-9, 9), Fraction(rng.randint(-9, 9), rng.randint(1, 8))])
        terms.append((rng.choice(comps), coeff))
    return QSymElement(basis, terms)


def _random_text(rng: random.Random, basis: str) -> str:
    """An element text the grammar reads, with the forms format_element never
    writes: a leading "+", "1*", "0*", unreduced fractions, repeated terms."""
    pieces = []
    for i in range(rng.randint(1, 4)):
        sign = rng.choice(["+", "-"]) if i else rng.choice(["", "+", "-"])
        coeff = rng.choice(["", "1*", "0*", f"{rng.randint(0, 12)}*", f"{rng.randint(0, 9)}/{rng.randint(1, 9)}*"])
        n = rng.randint(0, 5)
        comps = [c for c in compositions(n) if basis != "K" or all(p % 2 for p in c)]
        comp = rng.choice(comps) if comps else ()
        pieces.append(f"{sign}{coeff}{basis}[{','.join(map(str, comp))}]")
    return "".join(pieces)


def _spaced(rng: random.Random, text: str) -> str:
    """text with random whitespace before, between and after its tokens."""
    tokens = [token for token, _ in cli._tokenize(text)]
    return "".join(rng.choice(_SPACES) + token for token in tokens) + rng.choice(_SPACES)


def _outcome(read, text):
    try:
        return "ok", read(text)
    except ValueError as exc:
        return type(exc), str(exc), getattr(exc, "position", None)


def _token_parse(text):
    return _ElementParser(text).parse()


def _valid_texts(seed: int, count: int) -> list[str]:
    rng = random.Random(seed)
    texts = [_random_text(rng, basis) for _ in range(count) for basis in BASES]
    texts += [format_element(_random_element(rng, basis)) for _ in range(count) for basis in BASES]
    return texts


def test_the_fast_reader_reads_spaced_valid_elements_as_the_token_parser_does():
    rng = random.Random(27)
    for text in _valid_texts(27, 60):
        spaced = _spaced(rng, text)
        elem = _read_element(spaced)
        assert elem is not None, spaced
        assert elem == _token_parse(spaced) == parse_element(text)


def test_the_fast_reader_never_accepts_what_the_token_parser_rejects():
    rng = random.Random(2702)
    read = fallen_back = 0
    for text in _valid_texts(2701, 30):
        for _ in range(8):
            i = rng.randrange(len(text) + 1)
            edit = rng.randrange(3)
            char = rng.choice(_MUTATION_CHARS)
            if edit == 0:
                mutated = text[:i] + char + text[i:]
            elif edit == 1:
                mutated = text[:i] + text[i + 1 :]
            else:
                mutated = text[:i] + char + text[i + 1 :]
            want = _outcome(_token_parse, mutated)
            fast = _outcome(_read_element, mutated)
            if fast == ("ok", None):
                fallen_back += 1
            else:
                # accepted: the same element; refused by the constructor
                # (an even part in K): the same error
                assert fast == want, mutated
                read += 1
            assert _outcome(parse_element, mutated) == want
    assert read and fallen_back


@pytest.mark.parametrize(
    "text",
    [
        "",
        " ",
        "M[1] +",
        "M[1] M[2]",
        "M[1] + L[1]",
        "1/0*M[1]",
        "1/00*M[1]",
        "- -M[1]",
        "2M[1]",
        "etaM[1]",
        "M[1]eta[1]",
        "M[1\x1c]",
        "M[1] + 2*M[3,1] &",
        "1" * 5000 + "*M[1] &",
    ],
)
def test_the_fast_reader_leaves_what_it_cannot_read_to_the_token_parser(text):
    assert _read_element(text) is None


def test_the_fast_reader_alone_reads_every_element_the_cli_writes(monkeypatch):
    wanted = []
    for argv, code in CLI_SESSION:
        if argv[0] in ("convert", "multiply", "coproduct", "antipode", "expand") and code == 0:
            wanted += [arg for arg in argv[1:3] if "[" in arg]
    rng = random.Random(2703)
    elems = [_random_element(rng, basis) for _ in range(40) for basis in BASES]
    elems += [QSymElement.zero(basis) for basis in BASES] + [QSymElement.unit("M")]
    wanted += [format_element(elem) for elem in elems]
    expected = [parse_element(text) for text in wanted]

    class Refusing:
        def __init__(self, text):
            raise AssertionError(f"the token parser was asked to read {text!r}")

    monkeypatch.setattr(cli, "_ElementParser", Refusing)
    assert len(wanted) > 160
    assert [parse_element(text) for text in wanted] == expected
    assert expected[-len(elems):] == elems


def _printed(value) -> str:
    out = io.StringIO()
    with redirect_stdout(out):
        cli._print_json(value)
    return out.getvalue()


def test_the_json_writers_give_the_json_module_s_bytes_on_seeded_elements():
    rng = random.Random(2704)
    values = []
    for basis in BASES:
        for _ in range(25):
            elem = _random_element(rng, basis)
            values += [elem, coproduct(elem)]
            values += [expand(elem, nvars) for nvars in (0, rng.randint(1, 3))]
    values += [
        QSymElement.zero("eta"),
        QSymElement.unit("M"),
        coproduct(QSymElement.unit("M")),
        TensorElement(("M", "L")),
        TruncatedPoly(0, 0),
        TruncatedPoly(0, 2, {(): 3}),
        TruncatedPoly(2, 3, {((1, 2),): -4, ((1, 1), (2, 2)): Fraction(-7, 3), (): 1}),
    ]
    kinds = {type(v) for v in values}
    assert kinds == {QSymElement, TensorElement, TruncatedPoly}
    for value in values:
        assert _printed(value) == json.dumps(value.to_json_dict(), indent=2) + "\n"
