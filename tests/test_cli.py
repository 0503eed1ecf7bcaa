"""Element grammar, command dispatch, output determinism."""

import argparse
import collections
import contextlib
import hashlib
import io
import itertools
import json
import pathlib
import re
import subprocess
import sys
from fractions import Fraction

import pytest

from qsym import cli, core, ppartitions
from qsym.cli import (
    ElementParseError,
    build_parser,
    format_element,
    format_tensor,
    main,
    parse_composition,
    parse_element,
    parse_permutation,
)
from qsym.combinatorics import _code, compositions
from qsym.core import QSymElement, convert, coproduct
from qsym import verification
from qsym.expansion import TruncatedPoly, _m_monomials, poly_mul, poly_scale
from qsym.ppartitions import (
    _chain_m_terms,
    _gamma_chain,
    _ups,
    positive_alphabet,
    signed_alphabet,
)
from qsym.verification import check_eta_coproduct, check_specializations

from cli_session import CLI_SESSION, POSET
from golden_cli import DATA, DENSE_5, GOLDEN, HELP, MULTIPLY, OUTPUT, TRANSFORM, WRAPPED_FROM_3_13


def test_parse_element_golden():
    e = parse_element("2*M[5] + 4*M[1,4]")
    assert e == QSymElement("M", {(5,): 2, (1, 4): 4})
    e = parse_element("eta[1,3,1]")
    assert e == QSymElement.term("eta", (1, 3, 1))
    with pytest.raises(ValueError, match="odd"):
        parse_element("K[2,1]")


def test_parse_element_forms():
    assert parse_element("M[]") == QSymElement.unit("M")
    assert parse_element("0*M[]").is_zero
    assert parse_element("1/2*eta[1]") == QSymElement.term("eta", (1,), Fraction(1, 2))
    assert parse_element("-eta[5] + 2*eta[1,2,2]") == QSymElement(
        "eta", {(5,): -1, (1, 2, 2): 2}
    )
    assert parse_element("2*M[5]+4*M[1,4]") == parse_element(" 2*M[5] + 4*M[1,4] ")
    assert parse_element("M[2] - M[1,1]") == QSymElement("M", {(2,): 1, (1, 1): -1})


@pytest.mark.parametrize(
    "text",
    ["", "M[1,]", "2M[1]", "M[1", "M(1)", "M[1] & M[2]", "M[1] + L[1]", "x[1]", "3/M[1]"],
)
def test_parse_element_errors(text):
    with pytest.raises((ElementParseError, ValueError)):
        parse_element(text)


def test_parse_error_position():
    with pytest.raises(ElementParseError) as info:
        parse_element("M[1] % M[2]")
    assert info.value.position == 5


@pytest.mark.parametrize("text, position", [("1/0*M[1]", 2), ("M[2] - 3/00*M[1,1]", 9)])
def test_zero_denominator_is_a_parse_error(text, position, capsys):
    with pytest.raises(ElementParseError, match="zero denominator") as info:
        parse_element(text)
    assert info.value.position == position
    assert main(["convert", text, "--to", "L"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: zero denominator (at position {position})\n"


def test_format_parse_round_trip():
    candidates = [
        QSymElement.zero("eta"),
        QSymElement.unit("L"),
        convert(QSymElement.term("eta", (1, 3, 1)), "M"),
        convert(QSymElement.term("M", (2, 1)), "eta"),  # fractional coefficients
        QSymElement("eta", {(5,): -1, (1, 2, 2): 2, (2, 1, 2): 1}),
        QSymElement("M", {(1,): Fraction(-3, 2)}),
        QSymElement.term("K", (3, 1)),
    ]
    for elem in candidates:
        assert parse_element(format_element(elem)) == elem


def test_format_element_canonical_order():
    e = QSymElement("eta", {(2, 1, 2): 1, (5,): -1, (1, 2, 2): 2})
    assert format_element(e) == "-eta[5] + 2*eta[1,2,2] + eta[2,1,2]"


def test_format_tensor():
    t = coproduct(QSymElement.term("eta", (1, 2)))
    assert (
        format_tensor(t)
        == "eta[] (x) eta[1,2] + eta[1] (x) eta[2] + eta[1,2] (x) eta[]"
    )


def test_parse_permutation_and_composition():
    assert parse_permutation("1 4 2 5 3") == (1, 4, 2, 5, 3)
    assert parse_permutation("132") == (1, 3, 2)
    assert parse_permutation("") == ()
    assert parse_composition("1,3,1") == (1, 3, 1)
    assert parse_composition("") == ()


@pytest.mark.parametrize(
    "argv, message",
    [
        (["u-function", "12", "1,,2"], "composition '1,,2': cannot read '' as an integer"),
        (["u-function", "1x2", "1,2,1"], "permutation '1x2': cannot read 'x' as an integer"),
        (["u-function", "1 2 y", "1,2,1"], "permutation '1 2 y': cannot read 'y' as an integer"),
        (
            ["gamma", "--poset", str(pathlib.Path(__file__).parent / "data" / "poset_fork.json"),
             "--zset", "1,x"],
            "--zset '1,x': cannot read 'x' as an integer",
        ),
    ],
)
def test_a_malformed_word_composition_or_zset_names_the_argument_and_the_piece(
    capsys, argv, message
):
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_cli_multiply(capsys):
    rc = main(["multiply", "eta[1,2]", "eta[2]", "--basis", "eta"])
    assert rc == 0
    assert capsys.readouterr().out.strip() == "-eta[5] + 2*eta[1,2,2] + eta[2,1,2]"


def test_cli_convert(capsys):
    rc = main(["convert", "eta[1,3,1]", "--to", "M"])
    assert rc == 0
    assert (
        capsys.readouterr().out.strip()
        == "2*M[5] + 4*M[1,4] + 4*M[4,1] + 8*M[1,3,1]"
    )


def test_cli_convert_json(capsys):
    rc = main(["convert", "M[2]", "--to", "L", "--format", "json"])
    assert rc == 0
    data = json.loads(capsys.readouterr().out)
    assert data == {
        "basis": "L",
        "terms": [
            {"comp": [2], "coeff": "1"},
            {"comp": [1, 1], "coeff": "-1"},
        ],
    }


def test_cli_coproduct_and_antipode(capsys):
    assert main(["coproduct", "eta[1,2]"]) == 0
    out = capsys.readouterr().out.strip()
    assert out == "eta[] (x) eta[1,2] + eta[1] (x) eta[2] + eta[1,2] (x) eta[]"
    assert main(["antipode", "eta[2,5]"]) == 0
    assert capsys.readouterr().out.strip() == "eta[5,2]"


def test_cli_refuses_oversized_conversions_and_antipodes(capsys):
    ones = ",".join(["1"] * 40)
    for args in (["convert", "L[40]", "--to", "M"], ["convert", "eta[30]", "--to", "L"],
                 ["antipode", f"M[{ones}]"]):
        assert main(args) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert "subset masks, over the budget of 2097152" in captured.err
    assert main(["convert", "eta[40]", "--to", "M"]) == 0
    assert capsys.readouterr().out == "2*M[40]\n"


def test_cli_expand(capsys):
    assert main(["expand", "M[2,1]", "--nvars", "3"]) == 0
    assert capsys.readouterr().out.strip() == "x1^2*x2 + x1^2*x3 + x2^2*x3"
    assert main(["expand", "M[2,1]", "--degree", "1"]) == 1
    assert "error" in capsys.readouterr().err


def test_cli_u_function(capsys):
    assert main(["u-function", "1 3 2", "1,1,1"]) == 0
    assert capsys.readouterr().out.strip() == "-eta[3] + eta[1,1,1]"
    assert main(["u-function", "1 2", "2,1", "--zset", "P", "--nvars", "2"]) == 0
    # assignments f(1) <= f(2) over {1,2} weighted (2,1): (1,1), (1,2), (2,2)
    assert capsys.readouterr().out.strip() == "x1^3 + x1^2*x2 + x2^3"
    assert main(["u-function", "1", "3", "--zset=-1,+1,-2"]) == 0
    assert capsys.readouterr().out.strip() == "2*x1^3 + x2^3"


def test_cli_gamma(tmp_path, capsys):
    path = tmp_path / "poset.json"
    path.write_text(
        json.dumps({"n": 2, "covers": [], "weights": [1, 1]}), encoding="utf-8"
    )
    assert main(["gamma", "--poset", str(path), "--zset", "P", "--nvars", "2"]) == 0
    # two incomparable unit-weight vertices: (x1 + x2)^2
    assert capsys.readouterr().out.strip() == "x1^2 + 2*x1*x2 + x2^2"


def test_cli_named_alphabets_default_to_the_total_weight(tmp_path, capsys):
    path = tmp_path / "poset.json"
    path.write_text(json.dumps({"n": 2, "covers": []}), encoding="utf-8")
    assert main(["gamma", "--poset", str(path), "--zset", "P"]) == 0
    assert capsys.readouterr().out.strip() == "x1^2 + 2*x1*x2 + x2^2"
    assert main(["gamma", "--poset", str(path), "--zset", "Ppm"]) == 0
    # each vertex takes -1, 1, -2 or 2: (2*x1 + 2*x2)^2
    assert capsys.readouterr().out.strip() == "4*x1^2 + 8*x1*x2 + 4*x2^2"
    # f(1) <= f(2) over {1, 2, 3}, weighted (2, 1): sum of x_a^2*x_b over a <= b
    assert main(["u-function", "1 2", "2,1", "--zset", "P"]) == 0
    assert capsys.readouterr().out.strip() == (
        "x1^3 + x1^2*x2 + x1^2*x3 + x2^3 + x2^2*x3 + x3^3"
    )
    assert main(["u-function", "1", "2", "--zset", "Ppm"]) == 0
    assert capsys.readouterr().out.strip() == "2*x1^2 + 2*x2^2"


@pytest.mark.parametrize(
    "argv",
    [
        ["convert", "1/2*eta[1,3,1] - eta[2]", "--to", "M"],
        ["convert", "M[2] - M[2]", "--to", "L"],
        ["multiply", "L[1,2]", "3/4*L[2]"],
        ["coproduct", "L[2,1] + 1/3*L[3]"],
        ["coproduct", "M[1] - M[1]"],
        ["antipode", "K[1,3]", "--to", "M"],
        ["expand", "M[2,1]", "--nvars", "3"],
        ["expand", "M[2,1]", "--nvars", "1"],
        ["gamma", "--poset", str(pathlib.Path(__file__).parent / "data" / "poset_fork.json"),
         "--zset", "Ppm", "--nvars", "2"],
        ["u-function", "1 3 2", "1,1,1"],
        ["u-function", "2 1", "2,1", "--zset=-1,+1,-2"],
    ],
)
def test_cli_json_output_matches_the_json_module(capsys, argv):
    assert main(argv + ["--format", "json"]) == 0
    out = capsys.readouterr().out
    assert out == json.dumps(json.loads(out), indent=2) + "\n"


def test_json_writer_matches_the_json_module(capsys):
    values = [
        QSymElement.zero("eta"),
        TruncatedPoly(2, 3, {}),
        TruncatedPoly(2, 3, {((1, 1), (2, 2)): Fraction(-5, 2), (): 7}),
        coproduct(QSymElement("M", {(1, 2): Fraction(-5, 2), (): 1})),
    ]
    for value in values:
        cli._print_json(value)
        assert capsys.readouterr().out == json.dumps(value.to_json_dict(), indent=2) + "\n"


def test_cli_error_exit(capsys):
    assert main(["convert", "K[2,1]", "--to", "M"]) == 1
    err = capsys.readouterr().err
    assert "odd" in err
    assert main(["convert", "nonsense", "--to", "M"]) == 1
    assert "error" in capsys.readouterr().err


def test_cli_determinism(capsys):
    main(["convert", "eta[2,1,2]", "--to", "M", "--format", "json"])
    first = capsys.readouterr().out
    main(["convert", "eta[2,1,2]", "--to", "M", "--format", "json"])
    assert capsys.readouterr().out == first


def test_cli_verify(capsys):
    rc = main(["verify", "--max-degree", "5"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "10/10 checks passed" in out
    assert out.count("PASS") == 10


def _assert_golden(monkeypatch, capsys, name):
    """``main`` on the argv ``GOLDEN`` gives for ``name`` exits with its code
    and writes the golden file's bytes to its stream."""
    argv, stream, code = GOLDEN[name]
    monkeypatch.setenv("COLUMNS", "80")
    try:
        rc = main(argv)
    except SystemExit as exc:
        rc = exc.code
    assert rc == code
    assert getattr(capsys.readouterr(), stream).encode() == (DATA / name).read_bytes()


def test_cli_verify_stdout_is_byte_identical(monkeypatch, capsys):
    _assert_golden(monkeypatch, capsys, "verify_stdout.txt")


def test_cli_verify_max_degree_3_stdout_is_byte_identical(monkeypatch, capsys):
    # every check, its tables included, stays inside the --max-degree cap
    _assert_golden(monkeypatch, capsys, "verify_max3_stdout.txt")


def test_cli_verify_max_degree_1_stdout_is_byte_identical(monkeypatch, capsys):
    # the smallest bound: empty compositions and one-letter words
    _assert_golden(monkeypatch, capsys, "verify_max1_stdout.txt")


def test_cli_verify_max_degree_5_stdout_is_byte_identical(monkeypatch, capsys):
    # at this bound the shuffle and coshuffle checks run capped, with their
    # own case counts
    _assert_golden(monkeypatch, capsys, "verify_max5_stdout.txt")


@pytest.mark.parametrize("k", [2, 4, 6])
def test_cli_verify_even_max_degree_stdout_is_byte_identical(monkeypatch, capsys, k):
    # each cap sets its own chain-list sizes in the shuffle check
    _assert_golden(monkeypatch, capsys, f"verify_max{k}_stdout.txt")


# In the parametrized tests below, the parameters besides ``name`` only give
# each case its test id.
@pytest.mark.parametrize(
    "name, left, right", [(name, argv[1], argv[2]) for name, (argv, _, _) in MULTIPLY.items()]
)
def test_cli_multiply_json_is_byte_identical(monkeypatch, capsys, name, left, right):
    _assert_golden(monkeypatch, capsys, name)


def test_the_dense_element_lists_every_composition_once():
    elem = parse_element(DENSE_5.replace("B", "M"))
    assert list(elem.terms) == list(compositions(5))
    assert len(set(elem.terms.values())) == 16


@pytest.mark.parametrize("name, argv", [(name, argv) for name, (argv, _, _) in TRANSFORM.items()])
def test_cli_transform_json_is_byte_identical(monkeypatch, capsys, name, argv):
    _assert_golden(monkeypatch, capsys, name)


@pytest.mark.parametrize("name, argv", [(name, argv) for name, (argv, _, _) in OUTPUT.items()])
def test_cli_output_is_byte_identical(monkeypatch, capsys, name, argv):
    _assert_golden(monkeypatch, capsys, name)


def test_cli_verify_smallest_bound(capsys):
    # a random element that cancels to zero must compare against 0, not fail
    rc = main(["verify", "--max-degree", "1"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "10/10 checks passed" in out
    assert out.count("PASS") == 10


@pytest.mark.parametrize("bound", ["0", "-1"])
def test_cli_verify_rejects_bounds_below_one(capsys, bound):
    rc = main(["verify", "--max-degree", bound])
    captured = capsys.readouterr()
    assert rc != 0
    assert captured.out == ""
    assert captured.err.startswith("error: --max-degree must be at least 1")
    assert "Traceback" not in captured.err


def test_verify_check_without_cases_fails():
    result = check_specializations(0)
    assert result.detail == "0 specializations"
    assert not result.passed


def test_eta_coproduct_split_fails_on_a_wrong_piece(monkeypatch):
    real_mul = verification.poly_mul

    def doubling_mul(p, q):
        return poly_scale(real_mul(p, q), 2)

    monkeypatch.setattr(verification, "poly_mul", doubling_mul)
    result = check_eta_coproduct()
    assert not result.passed
    assert result.detail == "84 coproducts"
    assert len(result.failures) == 20
    assert all(f.startswith("alphabet split of ") for f in result.failures)


def _digest(failures):
    return len(failures), hashlib.sha256("\n".join(failures).encode()).hexdigest()


# Each broken L_of_permutation, with the failure list check_specializations
# gave when it compared expansions: (count, sha256 of the joined lines).
@pytest.mark.parametrize(
    "broken,failures",
    [
        (
            lambda real: lambda word: real(word).scale(2),
            (153, "b968e656b24de2d62a5f8d1a71e5dac907a2b2a82c2f6c5cce9208830558ddd4"),
        ),
        (
            lambda real: lambda word: real(word[::-1]),
            (104, "fabebda286153a3734422bb0409136176684a938f10fa66d41af00b9b36db8a3"),
        ),
    ],
)
def test_specializations_fail_on_a_broken_piece(monkeypatch, broken, failures):
    monkeypatch.setattr(
        verification, "L_of_permutation", broken(verification.L_of_permutation)
    )
    result = check_specializations()
    assert not result.passed
    assert result.detail == "430 specializations"
    assert _digest(result.failures) == failures


def test_check_results_build_compare_and_print_field_by_field():
    first = verification.CheckResult(name="a", passed=True, detail="d")
    second = verification.CheckResult("a", True, "d")
    assert first.failures == [] and first.failures is not second.failures
    assert first == second and first != verification.CheckResult("a", True, "d", ["x"])
    assert first != ("a", True, "d", [])
    assert repr(first) == "CheckResult(name='a', passed=True, detail='d', failures=[])"


def test_specializations_expand_nothing(monkeypatch):
    def refuse(*args):
        raise AssertionError("check_specializations expanded or built a polynomial")

    monkeypatch.setattr(verification, "expand", refuse)
    monkeypatch.setattr(verification, "poly_mul", refuse)
    monkeypatch.setattr(ppartitions, "_gamma_chain", refuse)
    assert check_specializations().passed


def test_eta_coproduct_expands_each_split_leg_once_per_call(monkeypatch):
    """The 20 alphabet splits take 204 leg expansions in two variables, of
    56 distinct (basis, composition, degree) inputs."""
    legs = collections.Counter()
    real = verification.expand

    def counting(elem, nvars, *args):
        if nvars == 2:
            legs[(elem.basis, *elem.terms, *args)] += 1
        return real(elem, nvars, *args)

    monkeypatch.setattr(verification, "expand", counting)
    for calls in (1, 2):
        assert check_eta_coproduct().passed
        assert len(legs) == 56 and set(legs.values()) == {calls}


def test_counterexample_text_is_built_only_for_a_failure():
    class Unprintable:
        def __format__(self, spec):
            raise AssertionError("a passing case was formatted")

    r = verification._Recorder()
    r.check(True, "case {}", Unprintable())
    r.check(False, "pi={} alpha={}", (2, 1), (1, 3))
    r.check(False, "contract_set((2,1,4,3,2), {2,4})")  # braces, no arguments
    assert r.count == 3
    assert r.failures == ["pi=(2, 1) alpha=(1, 3)", "contract_set((2,1,4,3,2), {2,4})"]


# Failing checks' lines and failure lists, recorded before counterexamples
# were formatted lazily: the text must not change.
_ROUND_TRIP_LINES = """\
FAIL  basis round trips (n <= 7): 256 round trips
      counterexample: eta_() to M and back = QSymElement(2*eta[])
      counterexample: M_() to eta and back = QSymElement(2*M[])
      counterexample: eta_(1,) to M and back = QSymElement(2*eta[1])
      counterexample: M_(1,) to eta and back = QSymElement(2*M[1])
      counterexample: eta_(2,) to M and back = QSymElement(2*eta[2])
      ... and 251 more"""
_SUBSET_SUM_LINES = """\
FAIL  signed subset sums (S, T within [5]): 1024 pairs
      counterexample: S=(1, 2, 3, 4, 5) T=(): 1 != 0
      counterexample: S=(1, 2, 3, 4, 5) T=(1,): 1 != 0
      counterexample: S=(1, 2, 3, 4, 5) T=(2,): 1 != 0
      counterexample: S=(1, 2, 3, 4, 5) T=(3,): 1 != 0
      counterexample: S=(1, 2, 3, 4, 5) T=(4,): 1 != 0
      ... and 27 more"""


def test_counterexample_lines_are_unchanged(monkeypatch):
    real_convert = verification.convert

    def doubled_to_eta(elem, basis):
        out = real_convert(elem, basis)
        return out.scale(2) if basis == "eta" else out

    with monkeypatch.context() as patch:
        patch.setattr(verification, "convert", doubled_to_eta)
        result = verification.check_basis_round_trip()
    assert "\n".join(result.lines()) == _ROUND_TRIP_LINES
    assert _digest(result.failures) == (
        256, "b08599ad7fa994083d81821bf8bd3fad957fb2d13f5152062a6d27e439e0d6dc"
    )
    real_sum = verification.signed_subset_sum
    monkeypatch.setattr(
        verification, "signed_subset_sum", lambda s, t: real_sum(s, t) + (len(s) == 5)
    )
    result = verification.check_signed_subset_sum()
    assert "\n".join(result.lines()) == _SUBSET_SUM_LINES
    assert _digest(result.failures) == (
        32, "164213c4a2308509f7c4aa927343e3c6749c0d47f5ca99551b34bfd7be39fc1d"
    )


def _drop_first(real):
    return lambda *args: real(*args)[1:]


def _doubled_walk(real):
    return lambda basis, ca, cb: {c: 2 * v for c, v in real(basis, ca, cb).items()}


# Each broken piece of the shuffle check, with the failure list the check
# gave before its sides were memoised: (count, sha256 of the joined lines).
# A doubled walk gives the list recorded for a doubled poly_mul, when the
# left side was the product of the two chain polynomials.
@pytest.mark.parametrize(
    "name,broken,failures",
    [
        (
            "shuffles", _drop_first,
            (837, "564f4491286f0a3cd8477e02bf61fa9b926608dcc8036093e35c7d93b6815867"),
        ),
        (
            "_pair_walk", _doubled_walk,
            (1010, "1c0a113de1120cb23e510485e2a11b8966fa70897132a1e52b5fc7549997950a"),
        ),
        (
            "coshuffle_product", _drop_first,
            (82, "4f04a2eda8fffc98840a173626e7564ef1208894f83cde2889d86f56ce018064"),
        ),
    ],
)
def test_shuffle_check_fails_on_a_broken_piece(monkeypatch, name, broken, failures):
    monkeypatch.setattr(verification, name, broken(getattr(verification, name)))
    result = verification.check_shuffle_products()
    assert not result.passed
    assert result.detail == "1012 products"
    assert _digest(result.failures) == failures


def test_shuffle_check_fails_only_the_pair_that_lost_a_word(monkeypatch):
    """(1,3,2) shares its up-down pattern, and so its left side, with (2,3,1)."""
    real = verification.shuffles

    def broken(pi, sigma):
        words = real(pi, sigma)
        return words[1:] if (pi, sigma) == ((1, 3, 2), (1,)) else words

    monkeypatch.setattr(verification, "shuffles", broken)
    result = verification.check_shuffle_products()
    assert result.detail == "1012 products"
    assert result.failures == [
        f"shuffle product pi=(1, 3, 2) sigma=(1,) |Z|={z}" for z in (4, 8)
    ]


def _shuffle_cases(monkeypatch):
    """Every case of a full check_shuffle_products run, in order: the factors
    (pi, alpha, sigma, beta) and the counterexample text up to its |Z|."""
    cases = []
    real_shuffles, real_coshuffles = verification.shuffles, verification.coshuffle_product

    def shuffles(pi, sigma):
        ones = (1,) * (len(pi) + len(sigma))
        text = f"shuffle product pi={pi} sigma={sigma} |Z|="
        cases.append((pi, ones[: len(pi)], sigma, ones[: len(sigma)], text))
        return real_shuffles(pi, sigma)

    def coshuffles(pi, alpha, sigma, beta):
        text = f"coshuffle product ({pi},{alpha}) x ({sigma},{beta}) |Z|="
        cases.append((pi, alpha, sigma, beta, text))
        return real_coshuffles(pi, alpha, sigma, beta)

    with monkeypatch.context() as patch:
        patch.setattr(verification, "shuffles", shuffles)
        patch.setattr(verification, "coshuffle_product", coshuffles)
        assert verification.check_shuffle_products().passed
    assert len(cases) == 1012 // 2
    return cases


_SHUFFLE_ALPHABETS = (positive_alphabet(4), signed_alphabet(4))


def test_shuffle_left_side_is_the_chain_polynomials_product(monkeypatch):
    """The oracle route: every left side of a full run, at both alphabets,
    the M quasi-shuffle of the two chain functions cut down to 4 parts, is
    the map of M-coefficients read from poly_mul of the two chain
    polynomials, which are written back onto every monomial."""
    real, left = verification._quasi_shuffle, {}

    def recorded(ta, tb, walk, scale=1):
        out = real(ta, tb, walk, scale)
        left[tuple(ta.items()), tuple(tb.items())] = out
        return out

    monkeypatch.setattr(verification, "_quasi_shuffle", recorded)
    keys = {(_ups(pi), alpha, _ups(sigma), beta)
            for pi, alpha, sigma, beta, _ in _shuffle_cases(monkeypatch)}
    mags = positive_alphabet(4)  # the magnitudes of both alphabets
    for (ups_pi, alpha, ups_sigma, beta), zs in itertools.product(keys, _SHUFFLE_ALPHABETS):
        ta, tb = _chain_m_terms(ups_pi, alpha, zs), _chain_m_terms(ups_sigma, beta, zs)
        product = poly_mul(_gamma_chain(ups_pi, alpha, zs, 4), _gamma_chain(ups_sigma, beta, zs, 4))
        oracle = {
            _code(tuple(e for _, e in mono)): c
            for mono, c in product.terms.items()
            if not mono or mono[-1][0] == len(mono)
        }
        written = {mono: c for b, c in oracle.items() for mono in _m_monomials(b, mags)}
        assert written == product.terms
        assert all(c.denominator == 1 for c in oracle.values())
        assert left[tuple(ta.items()), tuple(tb.items())] == oracle


def test_shuffle_check_fails_exactly_the_cases_whose_factors_hold_a_broken_pair(monkeypatch):
    """A walk broken for the one pair M_(2,1) * M_(1) fails a case at an
    alphabet exactly when its first factor has an M_(2,1) term and its
    second an M_(1) term there: every such left side is off by a nonzero
    multiple of that walk's surviving terms, and no other changes."""
    pair = (_code((2, 1)), _code((1,)))
    expected = [
        f"{text}{len(zs)}"
        for pi, alpha, sigma, beta, text in _shuffle_cases(monkeypatch)
        for zs in _SHUFFLE_ALPHABETS
        if pair[0] in _chain_m_terms(_ups(pi), alpha, zs)
        and pair[1] in _chain_m_terms(_ups(sigma), beta, zs)
    ]
    assert 0 < len(expected) < 1012
    real = verification._pair_walk

    def broken(basis, ca, cb):
        out = real(basis, ca, cb)
        return {c: 2 * v for c, v in out.items()} if (ca, cb) == pair else out

    monkeypatch.setattr(verification, "_pair_walk", broken)
    result = verification.check_shuffle_products()
    assert result.detail == "1012 products"
    assert result.failures == expected


@pytest.mark.parametrize("bad", [lambda c: -c, lambda c: c + (1 << 16)])
def test_shuffle_check_fails_a_product_coefficient_outside_its_field(monkeypatch, bad):
    """The left side of one product, (1,2,3) x (2,1) over the positive
    alphabet of 4, has its coefficient of M_(3,1,1) rewritten from
    c_(3,1,1) to bad(c_(3,1,1)); no other coefficient changes, and only
    that case fails."""
    target = "shuffle product pi=(1, 2, 3) sigma=(2, 1) |Z|=4"
    zs = positive_alphabet(4)
    factors = (
        _chain_m_terms(_ups((1, 2, 3)), (1, 1, 1), zs), _chain_m_terms(_ups((2, 1)), (1, 1), zs)
    )
    code, rewritten = _code((3, 1, 1)), []
    real = verification._quasi_shuffle

    def product(ta, tb, walk, scale=1):
        out = real(ta, tb, walk, scale)
        if (ta, tb) != factors:
            return out
        c = out[code]
        assert c > 0 and bad(c) != c
        rewritten.append(c)
        return {**out, code: bad(c)}

    monkeypatch.setattr(verification, "_quasi_shuffle", product)
    result = verification.check_shuffle_products()
    assert len(rewritten) == 1
    assert result.detail == "1012 products"
    assert result.failures == [target]


def test_product_checks_fail_a_walk_coefficient_of_any_size(monkeypatch):
    """A walk of M_(1) * M_(1) whose M_(1,1) coefficient is 2^40, not 2,
    fails exactly the cases that read it, with counterexamples, in both
    product checks: eta_(1) * eta_(1), whose M images are 2 M_(1), and
    each shuffle case whose factors both have an M_(1) term at an
    alphabet.  Sides are exact int maps, so no coefficient is too large
    to compare."""
    pair = (_code((1,)), _code((1,)))
    expected = [
        f"{text}{len(zs)}"
        for pi, alpha, sigma, beta, text in _shuffle_cases(monkeypatch)
        for zs in _SHUFFLE_ALPHABETS
        if pair[0] in _chain_m_terms(_ups(pi), alpha, zs)
        and pair[1] in _chain_m_terms(_ups(sigma), beta, zs)
    ]
    assert 0 < len(expected) < 1012
    real = verification._pair_walk

    def broken(basis, ca, cb):
        out = real(basis, ca, cb)
        return {**out, _code((1, 1)): 1 << 40} if (ca, cb) == pair else out

    monkeypatch.setattr(verification, "_pair_walk", broken)
    result = verification.check_shuffle_products()
    assert result.detail == "1012 products"
    assert result.failures == expected
    result = verification.check_eta_product_rule()
    assert result.detail == "576 products certified"
    assert result.failures == ["eta_(1,) * eta_(1,)"]


def _m_image_scaled(real, factor, length=None):
    """convert with its M image of an eta term scaled, every term's or
    only those of the given length."""

    def broken(elem, target):
        out = real(elem, target)
        hit = target == "M" and (length is None or len(next(iter(elem.terms))) == length)
        return out.scale(factor) if hit else out

    return broken


def _terms_mapped(real, pick):
    """real with the term list of its eta result passed through pick."""
    return lambda *args: QSymElement("eta", pick(list(real(*args).terms.items())))


# Each broken piece of the eta product rule and the chain-to-eta expansion,
# with the failure list the checks gave when both certified by expansion,
# before they compared M-coefficients: (count, sha256 of the joined lines).
_PRODUCT_RULE = ("check_eta_product_rule", "576 products certified")
_U_EXPANSION = ("check_u_expansion", "1944 expansions")


@pytest.mark.parametrize(
    "check,name,broken,failures",
    [
        (
            _PRODUCT_RULE, "eta_product", lambda real: lambda a, b: real(a, b).scale(2),
            (576, "e77c526d22a8e691256e5d8707dd1f29d957514b6bfd2a08b26d64085ac6482e"),
        ),
        (
            # drops the last term of every product with more than one
            _PRODUCT_RULE, "eta_product", lambda real: _terms_mapped(real, lambda t: t[:-1] or t),
            (318, "4982f90ecbecd3b28b250dd5007ae82859f27b8b0d9924a894500146d8854b4e"),
        ),
        (
            _PRODUCT_RULE, "convert", lambda real: _m_image_scaled(real, 2),
            (576, "e77c526d22a8e691256e5d8707dd1f29d957514b6bfd2a08b26d64085ac6482e"),
        ),
        (
            # halves only the eta terms of length 2: the reference side
            # carries denominators
            _PRODUCT_RULE, "convert", lambda real: _m_image_scaled(real, Fraction(1, 2), 2),
            (205, "1eeff39e0efaa1e665276a2524cb01ccb95802686b3fa5b9bc57407f90c2a2f8"),
        ),
        (
            _U_EXPANSION, "universal_to_eta", lambda real: _terms_mapped(real, lambda t: t[1:]),
            (1944, "2b165cc2c607cdd7599a82f7412aeed2a622a56a25b9ccd55b7598f5dc62f4b8"),
        ),
        (
            _U_EXPANSION, "universal_to_eta",
            lambda real: _terms_mapped(real, lambda t: [(c, abs(v)) for c, v in t]),
            (1296, "0c9cb5b26eea74d06d835bb83caa526a78420e04883be97380f95510b6b5800e"),
        ),
    ],
)
def test_eta_checks_fail_on_a_broken_piece(monkeypatch, check, name, broken, failures):
    monkeypatch.setattr(verification, name, broken(getattr(verification, name)))
    result = getattr(verification, check[0])()
    assert not result.passed
    assert result.detail == check[1]
    assert _digest(result.failures) == failures


def test_u_expansion_fails_only_the_broken_word(monkeypatch):
    """(2,1,4,3) is the first of five words with its up-down pattern: the
    four after it still pass on their own elements."""
    real = verification.universal_to_eta

    def broken(word, alpha):
        out = real(word, alpha)
        return out.scale(2) if word == (2, 1, 4, 3) else out

    monkeypatch.setattr(verification, "universal_to_eta", broken)
    result = verification.check_u_expansion()
    assert result.detail == "1944 expansions"
    assert result.failures == [
        f"pi=(2, 1, 4, 3) alpha={alpha}"
        for alpha in itertools.product((1, 2, 3), repeat=4)
    ]


def test_specializations_fail_only_the_broken_word(monkeypatch):
    """(3,1,4,2,5) shares its up-down pattern with words before and after it."""
    real = verification.L_of_permutation

    def broken(word):
        out = real(word)
        return out.scale(2) if word == (3, 1, 4, 2, 5) else out

    monkeypatch.setattr(verification, "L_of_permutation", broken)
    result = check_specializations()
    assert result.detail == "430 specializations"
    assert result.failures == ["positive alphabet, unit weights, pi=(3, 1, 4, 2, 5)"]


def test_chain_comparisons_run_once_per_distinct_key_and_element(monkeypatch):
    """check_specializations compares 186 distinct (pattern, weights,
    alphabet, element) for its 430 cases, check_u_expansion 648 for its
    1944, on every call."""
    calls = collections.Counter()
    real = verification._chain_agrees

    def counting(*args):
        calls[args] += 1
        return real(*args)

    monkeypatch.setattr(verification, "_chain_agrees", counting)
    for check, distinct in [(check_specializations, 186), (verification.check_u_expansion, 648)]:
        for runs in (1, 2):
            assert check().passed
            assert len(calls) == distinct and set(calls.values()) == {runs}
        calls.clear()


def _recording(real, seen):
    """real, counting each call by its input element and other arguments."""

    def wrapper(elem, *args):
        seen[(elem.basis, *sorted(elem.terms.items()), *args)] += 1
        return real(elem, *args)

    return wrapper


def test_leg_maps_take_each_distinct_leg_once_per_call(monkeypatch):
    """check_eta_coproduct converts each eta term of degree <= 6 to M once
    per call, for its M route and every deconcatenation with it as a leg.
    check_antipode takes 5 antipodes per composition alpha of degree <= 6:
    S and S(S) of M_alpha, S and S(S) of eta_alpha, and S of eta_alpha's M
    image; the Hopf axiom's legs reuse S(eta_alpha)."""
    converted, antipodes = collections.Counter(), collections.Counter()
    monkeypatch.setattr(verification, "convert", _recording(verification.convert, converted))
    monkeypatch.setattr(verification, "antipode", _recording(verification.antipode, antipodes))
    etas = [("eta", (c, 1), "M") for n in range(7) for c in compositions(n)]
    for calls in (1, 2):
        assert verification.check_eta_coproduct().passed
        assert converted == collections.Counter(dict.fromkeys(etas, calls))
    converted.clear()
    for calls in (1, 2):
        assert verification.check_antipode().passed
        assert sum(antipodes.values()) == 5 * len(etas) * calls


def test_run_all_keeps_nothing_between_runs():
    """The checks' memos live inside each call: a second run prints the
    same lines, and the module itself holds no cache."""
    first = [r.lines() for r in verification.run_all()]
    assert [r.lines() for r in verification.run_all()] == first
    assert not [
        name
        for name, value in vars(verification).items()
        if hasattr(value, "cache_info") and value.__module__ == verification.__name__
    ]


# Each check's case count under run_all(k), recorded when the eta product
# rule and the chain-to-eta expansion still certified by expansion; k = 1
# reaches the empty composition and the total-0 products.
@pytest.mark.parametrize(
    "k,counts",
    [
        (1, (10, 4, 3, 22, 8, 6, 82, 3, 2, 1024)),
        (2, (10, 8, 8, 24, 16, 18, 84, 18, 3, 1024)),
        (3, (10, 16, 20, 28, 32, 46, 92, 162, 5, 1024)),
        (4, (10, 32, 48, 36, 64, 126, 124, 1944, 8, 1024)),
        (5, (10, 64, 112, 52, 128, 430, 268, 1944, 13, 1024)),
        (6, (10, 128, 256, 84, 224, 430, 1012, 1944, 21, 1024)),
        (7, (10, 256, 576, 84, 224, 430, 1012, 1944, 34, 1024)),
    ],
)
def test_case_counts_at_every_cap(k, counts):
    results = verification.run_all(k)
    assert all(r.passed for r in results)
    assert tuple(int(r.detail.split()[0]) for r in results) == counts


def run_cli_session() -> tuple[str, list[int]]:
    """Concatenated stdout and the exit codes of CLI_SESSION, run in order."""
    out, codes = io.StringIO(), []
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        for argv, _ in CLI_SESSION:
            try:
                codes.append(main(argv))
            except SystemExit as exc:
                codes.append(exc.code)
    return out.getvalue(), codes


def test_cli_session_stdout_is_byte_identical():
    golden = DATA / "cli_session_stdout.txt"
    out, codes = run_cli_session()
    assert codes == [code for _, code in CLI_SESSION]
    assert out.encode() == golden.read_bytes()


@pytest.mark.parametrize(
    "argv, stream, code, name",
    [
        pytest.param(
            argv, stream, code, name,
            marks=pytest.mark.skipif(
                name in WRAPPED_FROM_3_13 and sys.version_info >= (3, 13),
                reason="argparse 3.13 wraps this usage line",
            ),
        )
        for name, (argv, stream, code) in HELP.items()
    ],
)
def test_help_and_usage_errors_are_byte_identical(monkeypatch, capsys, argv, stream, code, name):
    monkeypatch.setenv("COLUMNS", "80")
    texts = []
    for parse in (main, build_parser().parse_args):
        with pytest.raises(SystemExit) as info:
            parse(argv)
        assert info.value.code == code
        texts.append(getattr(capsys.readouterr(), stream))
    assert texts[0] == texts[1]
    assert texts[0].encode() == (DATA / name).read_bytes()


def test_cli_refuses_a_product_past_the_walk_budget(monkeypatch, capsys):
    """(1^16)(1^16) in M is refused at the real budget (a CI step runs it);
    here a budget of 100 refuses (1^6)(1^6) with the same error: line."""
    monkeypatch.setattr(core, "_WALK_BUDGET", 100)
    ones = ",".join(["1"] * 6)
    assert main(["multiply", f"M[{ones}]", f"M[{ones}]"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert re.fullmatch(
        "error: the M product in degree 12 holds [0-9]+ partial products at once, "
        "over the budget of 100\n",
        captured.err,
    )


def test_cli_refuses_routed_K_conversions_and_huge_bounds_at_once(capsys):
    budget = "subset masks, over the budget of 2097152"
    for target in ("L", "M"):
        assert main(["convert", "K[41]", "--to", target]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: eta to {target} in degree 41 needs up to {2**40} {budget}\n"
    assert main(["convert", "M[15000]", "--to", "L"]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: M to L in degree 15000 needs up to 2^14999 {budget}\n"


def test_main_builds_its_parser_only_for_argparse_and_once(monkeypatch):
    """The plain argvs of CLI_SESSION build no parser; the argvs only
    argparse may decide (its usage errors) build one, once per process."""
    built = []

    def counting_build():
        built.append(1)
        return build_parser()

    monkeypatch.setattr(cli, "_PARSER", None)
    monkeypatch.setattr(cli, "_VERBS", None)
    monkeypatch.setattr(cli, "build_parser", counting_build)
    usage_errors = [argv for argv, code in CLI_SESSION if code == 2]
    assert usage_errors
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        for argv, code in CLI_SESSION:
            if code != 2:
                assert main(argv) == code
        assert built == [] and cli._PARSER is None
        for argv in usage_errors * 2:
            with pytest.raises(SystemExit) as info:
                main(argv)
            assert info.value.code == 2
    assert built == [1]


_PROBE = """
import sys
sys.path.insert(0, sys.argv[1])
before = set(sys.modules)
import contextlib, io
import qsym.cli
with contextlib.redirect_stdout(io.StringIO()):
    for argv in ARGVS:
        assert qsym.cli.main(argv) == 0, argv
print(" ".join(sorted({"argparse", "dataclasses", "inspect"} & (set(sys.modules) - before))))
"""


def test_plain_requests_load_no_argparse_dataclasses_or_inspect():
    """In a fresh isolated interpreter, importing qsym.cli and running one
    plain request of each verb loads none of the three modules."""
    argvs = [
        ["convert", "M[1]", "--to", "L"],
        ["multiply", "M[1]", "L[2]", "--basis", "eta"],
        ["coproduct", "eta[1,2]", "--format", "json"],
        ["antipode", "K[1,3]", "--to", "M"],
        ["expand", "M[2,1]", "--nvars", "3"],
        ["gamma", "--poset", POSET, "--zset", "Ppm", "--nvars", "2"],
        ["u-function", "1 3 2", "1,1,1", "--zset", "P"],
        ["verify", "--max-degree", "2"],
    ]
    assert sorted(argv[0] for argv in argvs) == sorted(cli._GRAMMAR)
    code = _PROBE.replace("ARGVS", repr(argvs))
    src = str(pathlib.Path(cli.__file__).parent.parent)
    done = subprocess.run(
        [sys.executable, "-I", "-c", code, src], capture_output=True, text=True, check=True
    )
    assert done.stdout == "\n"


def test_every_type_in_the_grammar_is_int_or_none():
    """_typed catches only what int raises, so the grammar names no other type."""
    for _, _, arguments in cli._GRAMMAR.values():
        for _, keywords in arguments:
            assert keywords.get("type") in (int, None)


def test_build_parser_returns_a_new_parser_each_call():
    first, second = build_parser(), build_parser()
    assert first is not second
    assert first is not cli._PARSER


def test_changing_a_built_parser_does_not_reach_main(capsys):
    def hijacked(args):
        print("hijacked")
        return 3

    handed = build_parser()
    handed.prog = "hijacked"
    handed.set_defaults(func=hijacked)
    for action in handed._actions:
        if isinstance(action, argparse._SubParsersAction):
            for sub in action.choices.values():
                sub.set_defaults(func=hijacked)
    assert main(["antipode", "eta[2,5]"]) == 0
    assert capsys.readouterr().out == "eta[5,2]\n"
    with pytest.raises(SystemExit) as info:
        main([])
    assert info.value.code == 2
    assert "usage: qsym " in capsys.readouterr().err


def test_cli_expand_rejects_negative_nvars(capsys):
    assert main(["expand", "M[1,2]", "--nvars", "-1"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: nvars must be nonnegative, got -1\n"


@pytest.mark.parametrize(
    "element, nvars, estimate",
    [("L[30]", "30", "536870912 index tuples"), ("M[2,1,1]", "400", "10586800 monomials")],
)
def test_cli_expand_refuses_past_its_budget(capsys, element, nvars, estimate):
    assert main(["expand", element, "--nvars", nvars]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and estimate in captured.err


def test_cli_gamma_prints_a_wide_antichain_and_refuses_past_the_step_budget(tmp_path, capsys):
    antichain, fan = tmp_path / "antichain9.json", tmp_path / "fan40.json"
    antichain.write_text(json.dumps({"n": 9, "covers": [], "weights": [1] * 9}))
    fan.write_text(json.dumps({"n": 40, "covers": [[1, j] for j in range(2, 41)]}))
    assert main(["gamma", "--poset", str(antichain), "--zset", "1"]) == 0
    assert main(["gamma", "--poset", str(fan), "--zset", "1"]) == 1
    captured = capsys.readouterr()
    assert captured.out == "x1^9\n"
    assert captured.err == "error: gamma takes more than 1000000 steps\n"


@pytest.mark.parametrize(
    "content, field",
    [
        ('{"covers": [[1, 2]]}', "'n'"),
        ("[[1, 2]]", "JSON object"),
        ('{"n": 2, "covers": [1]}', "'covers'"),
        # relations under any key but "covers" must not load as an antichain
        ('{"n": 2, "relations": [[1, 2]], "weights": [1, 1]}', "'relations'"),
        # refused before any vertex is built
        ('{"n": 100000000}', "'n' must be at most 1000000"),
    ],
)
def test_cli_gamma_malformed_poset_file(tmp_path, capsys, content, field):
    path = tmp_path / "poset.json"
    path.write_text(content, encoding="utf-8")
    assert main(["gamma", "--poset", str(path), "--zset", "P", "--nvars", "2"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert field in captured.err
    assert "Traceback" not in captured.err
