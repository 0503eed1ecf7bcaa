"""Element grammar, command dispatch, output determinism."""

import argparse
import contextlib
import io
import json
import pathlib
from fractions import Fraction

import pytest

from qsym import cli
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
from qsym.core import M_to_eta, QSymElement, coproduct, eta_to_M
from qsym import verification
from qsym.expansion import TruncatedPoly
from qsym.verification import check_eta_coproduct, check_specializations


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
        eta_to_M((1, 3, 1)),
        M_to_eta((2, 1)),  # fractional coefficients
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


def test_cli_verify_stdout_is_byte_identical(capsys):
    golden = pathlib.Path(__file__).parent / "data" / "verify_stdout.txt"
    rc = main(["verify"])
    assert rc == 0
    assert capsys.readouterr().out.encode() == golden.read_bytes()


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


def test_eta_coproduct_split_fails_on_a_truncated_piece(monkeypatch):
    real_mul = verification.poly_mul

    def truncating_mul(p, q):
        prod = real_mul(p, q)
        return TruncatedPoly(prod.nvars, prod.degree, prod.terms, truncated=True)

    monkeypatch.setattr(verification, "poly_mul", truncating_mul)
    result = check_eta_coproduct()
    assert not result.passed
    assert result.detail == "84 coproducts"
    assert len(result.failures) == 20
    assert all(f.startswith("alphabet split of ") for f in result.failures)


# One process, one request after another: every verb in text and JSON, an
# element parse error and an argparse usage error in the middle, so the
# later requests run after failed ones.  Exit code 2 is argparse's SystemExit.
_POSET = str(pathlib.Path(__file__).parent / "data" / "poset_fork.json")
CLI_SESSION = [
    (["convert", "eta[1,3,1]", "--to", "M"], 0),
    (["convert", "2*M[5] + 4*M[1,4]", "--to", "eta", "--format", "json"], 0),
    (["multiply", "eta[1,2]", "eta[2]", "--basis", "eta"], 0),
    (["multiply", "1/2*M[1]", "L[2,1]", "--basis", "M", "--to", "L", "--format", "json"], 0),
    (["coproduct", "eta[1,2]"], 0),
    (["coproduct", "M[2,1] - 3*M[3]", "--format", "json"], 0),
    (["antipode", "L[2,1] + 2*L[1,1,1]"], 0),
    (["antipode", "eta[2,5]", "--to", "M", "--format", "json"], 0),
    (["expand", "M[2,1]", "--nvars", "3"], 0),
    (["expand", "1/3*L[1,2]", "--format", "json"], 0),
    (["gamma", "--poset", _POSET, "--zset", "P", "--nvars", "3"], 0),
    (["convert", "M[1] + L[2]", "--to", "eta"], 1),
    (["gamma", "--poset", _POSET, "--zset", "Ppm", "--nvars", "2", "--format", "json"], 0),
    (["u-function", "1 3 2", "1,1,1"], 0),
    (["convert", "M[1]"], 2),
    (["u-function", "1 3 2", "1,2,1", "--format", "json"], 0),
    (["u-function", "12", "2,1", "--zset", "P", "--nvars", "2"], 0),
    (["u-function", "231", "1,1,1", "--zset=-1,+1,-2", "--format", "json"], 0),
    (["convert", "K[3,1]", "--to", "L"], 0),
    (["convert", "eta[1,1] - 2*eta[3]", "--to", "K", "--format", "json"], 0),
    (["multiply", "K[1]", "K[3]", "--format", "json"], 0),
    (["gamma", "--poset", _POSET, "--zset=1,-1,2"], 0),
    (["antipode", "K[1,3]"], 0),
    (["verify", "--max-degree", "2"], 0),
]


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
    golden = pathlib.Path(__file__).parent / "data" / "cli_session_stdout.txt"
    out, codes = run_cli_session()
    assert codes == [code for _, code in CLI_SESSION]
    assert out.encode() == golden.read_bytes()


def test_main_builds_its_parser_once(monkeypatch):
    built = []

    def counting_build():
        built.append(1)
        return build_parser()

    monkeypatch.setattr(cli, "_PARSER", None)
    monkeypatch.setattr(cli, "build_parser", counting_build)
    run_cli_session()
    assert len(built) == 1


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
    "content, field",
    [
        ('{"covers": [[1, 2]]}', "'n'"),
        ("[[1, 2]]", "JSON object"),
        ('{"n": 2, "covers": [1]}', "'covers'"),
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
