"""GOLDEN: every CLI output pinned byte for byte to a file in tests/data.

Each entry maps the golden file's name to the argv (without the program
name) that writes it, the stream it is written to and the exit code.  Help
texts were recorded with ``COLUMNS=80``, and every entry runs with it.
``tests/test_cli.py`` runs each entry through ``qsym.cli.main``.  Run as a
script, this module runs the installed ``qsym`` on each entry and compares
its exit code and bytes:

    python tests/golden_cli.py
"""

import difflib
import os
import pathlib
import subprocess
import sys

from cli_session import POSET

DATA = pathlib.Path(__file__).parent / "data"

# Every composition of 5, the i-th of ``compositions(5)`` with coefficient
# (-1)^i (i+1)/(i%3+2), in the basis B.
DENSE_5 = (
    "1/2*B[5] - 2/3*B[1,4] + 3/4*B[2,3] - 2*B[3,2] + 5/3*B[4,1] - 3/2*B[1,1,3]"
    " + 7/2*B[1,2,2] - 8/3*B[1,3,1] + 9/4*B[2,1,2] - 5*B[2,2,1] + 11/3*B[3,1,1]"
    " - 3*B[1,1,1,2] + 13/2*B[1,1,2,1] - 14/3*B[1,2,1,1] + 15/4*B[2,1,1,1]"
    " - 8*B[1,1,1,1,1]"
)
_L_ELEMENT = "1/2*L[2,1] - 3*L[1,1,1] + 2/3*L[3] - 5/4*L[1,2]"
_JSON = ("--format", "json")


def _stdout(*argv):
    """An entry that exits 0 and pins its stdout."""
    return list(argv), "out", 0


# The identity suite at its full bounds and at every cap from 1 to 6.
VERIFY = {
    "verify_stdout.txt": _stdout("verify"),
    **{f"verify_max{k}_stdout.txt": _stdout("verify", "--max-degree", str(k)) for k in range(1, 7)},
}
# Products whose operands repeat equal parts, so the pair walk sums two
# sources at one size.
MULTIPLY = {
    "multiply_M.json": _stdout(
        "multiply", "M[2,1,2] + 1/2*M[1,1]", "M[2,2,1] - 3*M[1,2,1]", *_JSON
    ),
    "multiply_L.json": _stdout("multiply", "L[1,2,1] - 2/3*L[2]", "L[2,1,1] + L[1,1]", *_JSON),
    "multiply_eta.json": _stdout(
        "multiply", "eta[1,1,2] + 3/4*eta[2,2]", "eta[1,2,1] - 5*eta[1]", *_JSON
    ),
    "multiply_K.json": _stdout("multiply", "K[1,3] + 1/2*K[3]", "K[3,1,1] - 2*K[1]", *_JSON),
}
# A dense conversion and antipode.
TRANSFORM = {
    "convert_eta_L.json": _stdout("convert", DENSE_5.replace("B", "eta"), "--to", "L", *_JSON),
    "antipode_M.json": _stdout("antipode", DENSE_5.replace("B", "M"), *_JSON),
}
# Each of the three JSON shapes, text expansions, and conversions across
# degrees with different denominators.
OUTPUT = {
    "expand_L.json": _stdout("expand", _L_ELEMENT, "--nvars", "3", *_JSON),
    "expand_L.txt": _stdout("expand", _L_ELEMENT, "--nvars", "3"),
    "coproduct_eta.json": _stdout(
        "coproduct", "eta[1,2,1] - 3/4*eta[2,1] - 5/2*eta[3] + 1/3*eta[]", *_JSON
    ),
    "gamma_fork_Ppm.json": _stdout(
        "gamma", "--poset", POSET, "--zset", "Ppm", "--nvars", "3", *_JSON
    ),
    "u_function_eta.json": _stdout("u-function", "2 4 1 3", "1,2,1,1", *_JSON),
    "expand_K.json": _stdout("expand", "K[1,3,1] - 1/2*K[5] + 2*K[3,1,1]", "--nvars", "4", *_JSON),
    "expand_eta.txt": _stdout("expand", "eta[1,2,1] + 3/4*eta[2,2] - eta[4]", "--nvars", "3"),
    "u_function_Ppm.json": _stdout(
        "u-function", "2 4 1 3", "1,2,1,1", "--zset", "Ppm", "--nvars", "3", *_JSON
    ),
    "convert_M_eta.json": _stdout(
        "convert", "1/3*M[2] - 5/4*M[1,1,1] + 7/6*M[]", "--to", "eta", *_JSON
    ),
    "convert_K_L.txt": _stdout("convert", "K[1,3] - 2/3*K[3,1,1] + 1/2*K[1]", "--to", "L"),
    "coproduct_L.json": _stdout("coproduct", "3/4*L[1,2,1] - 1/6*L[2,2] + L[3]", *_JSON),
}
# argparse's own texts: help (exit 0) and usage errors (exit 2).
HELP = {
    "help_stdout.txt": _stdout("--help"),
    "gamma_help_stdout.txt": _stdout("gamma", "--help"),
    "convert_usage_error_stderr.txt": (["convert", "M[1]"], "err", 2),
    "multiply_usage_error_stderr.txt": (["multiply", "M[1]"], "err", 2),
    **{
        f"{verb.replace('-', '_')}_help_stdout.txt": _stdout(verb, "--help")
        for verb in ("convert", "multiply", "coproduct", "antipode", "expand", "u-function",
                     "verify")
    },
}
GOLDEN = {**VERIFY, **MULTIPLY, **TRANSFORM, **OUTPUT, **HELP}

# argparse 3.13 and later wrap the top-level usage line differently.
WRAPPED_FROM_3_13 = {"help_stdout.txt"}


def main() -> int:
    """Run the installed ``qsym`` on every entry; 1 if any output differs."""
    failed = skipped = 0
    for name, (argv, stream, code) in GOLDEN.items():
        if name in WRAPPED_FROM_3_13 and sys.version_info >= (3, 13):
            print(f"skipped {name}: argparse 3.13 wraps it differently")
            skipped += 1
            continue
        run = subprocess.run(
            ["qsym", *argv], capture_output=True, env={**os.environ, "COLUMNS": "80"}
        )
        got = run.stdout if stream == "out" else run.stderr
        want = (DATA / name).read_bytes()
        if run.returncode == code and got == want:
            continue
        failed += 1
        print(f"FAIL {name}: qsym {argv!r} exited {run.returncode} (expected {code})")
        sys.stdout.writelines(
            difflib.unified_diff(
                want.decode().splitlines(True), got.decode().splitlines(True), name, "qsym"
            )
        )
    print(f"{len(GOLDEN)} golden outputs: {failed} differ, {skipped} skipped")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
