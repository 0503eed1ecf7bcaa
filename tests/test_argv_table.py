"""``qsym.cli.main`` reads a plain argv from its per-verb table; every
Namespace the table gives must equal argparse's for the same argv.

Needs no pytest, so other interpreters can run the same check as a script:

    PYTHONPATH=src python tests/test_argv_table.py
"""

import contextlib
import io
import random

from qsym.cli import _GRAMMAR, _argv_table, _table_args, build_parser

from cli_session import CLI_SESSION, POSET

_VALUES = {
    "--to": ("M", "L", "K", "eta", "Q", ""),
    "--basis": ("M", "eta", "X"),
    "--format": ("text", "json", "xml"),
    "--nvars": ("3", "0", "-1", " 2", "x", "1_0"),
    "--degree": ("4", "-2", "y"),
    "--poset": (POSET, "- p.json"),
    "--zset": ("P", "Ppm", "-1,+1,-2", "1,2", "- 1"),
    "--max-degree": ("1", "3", "-2", "z"),
}
# tokens that argparse reads in its own ways
_ODD = ("-h", "--help", "--", "-", "-M[1]", "--fo", "--to=", "-x", "", " ", "-1", "- 3", "-- x")

# argvs that only argparse may decide: help, "--", an abbreviation, a bad
# type or choice, an empty "=" value, "-" and "-M[1]" as elements, a
# missing required option and an extra positional
EDGE_CASES = [
    ["-h"],
    [],
    ["nope"],
    ["convert", "M[1]", "--to", "L", "-h"],
    ["convert", "--", "M[1]", "--to", "L"],
    ["convert", "M[1]", "--to", "L", "--", "L[2]"],
    ["convert", "M[1]", "--to", "L", "--fo", "json"],
    ["expand", "M[1]", "--nvars", "x"],
    ["convert", "M[1]", "--to", "Q"],
    ["convert", "M[1]", "--to="],
    ["convert", "-", "--to", "L"],
    ["convert", "-M[1]", "--to", "L"],
    ["convert", "M[1]"],
    ["convert", "M[1]", "M[2]", "--to", "L"],
    ["multiply", "M[1]"],
    ["gamma", "--help"],
    ["expand", "M[1]", "--nvars", "-1"],
    ["convert", "M[1]", "--to"],
]


def _element(rng) -> str:
    text = rng.choice(("", "- ", "-", "+ ", " "))
    for i in range(rng.randint(1, 3)):
        if i:
            text += rng.choice((" + ", " - ", "+", "-"))
        num, den = rng.randint(1, 9), rng.randint(1, 4)
        text += rng.choice(("", f"{num}*", f"{num}/{den}*"))
        parts = ",".join(str(rng.randint(1, 3)) for _ in range(rng.randint(0, 3)))
        text += f"{rng.choice(('M', 'L', 'K', 'eta'))}[{parts}]"
    return text


def seeded_argvs(seed: int, count: int = 1000) -> list:
    """Argvs in the style of the cli-session benchmark, with their defects:
    negative multi-term elements, ``--opt=value`` forms, repeated options,
    a missing or extra positional, foreign options and odd tokens."""
    rng = random.Random(f"argv-table/{seed}")
    argvs = []
    for _ in range(count):
        verb = rng.choice(sorted(_GRAMMAR))
        arguments = _GRAMMAR[verb][2]
        names = [name for name, _ in arguments if name[0] == "-"]
        if verb == "u-function":
            words = [rng.choice(("1 3 2", "132", "2 1", "1")), rng.choice(("1,1,1", "2,1", ""))]
        else:
            words = [_element(rng) for _ in range(len(arguments) - len(names))]
        if rng.random() < 0.1:
            words.pop() if words and rng.random() < 0.5 else words.append(_element(rng))
        required = [name for name, kw in arguments if kw.get("required")]
        chosen = required + [rng.choice(names) for _ in range(rng.randint(0, 3))]
        if rng.random() < 0.05:
            chosen.append(rng.choice(sorted(_VALUES)))
        if chosen and rng.random() < 0.05:
            chosen.pop(0)
        for name in chosen:
            value = rng.choice(_VALUES[name])
            words.append(f"{name}={value}" if rng.random() < 0.3 else [name, value])
        if rng.random() < 0.1:
            words.append(rng.choice(_ODD))
        rng.shuffle(words)
        argv = [verb]
        for word in words:
            argv += word if isinstance(word, list) else [word]
        argvs.append(argv)
    return argvs


def _argparse_result(parser, argv):
    """parse_args(argv)'s Namespace, or the SystemExit it raised."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return parser.parse_args(argv)
        except SystemExit as exc:
            return exc


def check(argvs) -> int:
    """Every Namespace the table gives equals argparse's; returns how many
    argvs the table settled."""
    parser = build_parser()
    table = _argv_table()
    settled = 0
    for argv in argvs:
        got = _table_args(list(argv), table)
        if got is None:
            continue
        want = _argparse_result(parser, list(argv))
        assert not isinstance(want, SystemExit), (argv, vars(got))
        assert vars(got) == vars(want), argv
        settled += 1
    return settled


def test_the_table_settles_every_plain_argv_of_the_cli_session():
    plain = [argv for argv, code in CLI_SESSION if code != 2]
    assert check(plain) == len(plain)
    assert check([argv for argv, code in CLI_SESSION if code == 2]) == 0


def test_argparse_decides_every_edge_case():
    assert check(EDGE_CASES) == 0


def test_the_table_agrees_with_argparse_on_seeded_argvs():
    for seed in range(1, 6):
        argvs = seeded_argvs(seed)
        settled = check(argvs)
        # over a third are plain, and the table settles them
        assert len(argvs) // 3 < settled < len(argvs), (seed, settled)


def test_a_verb_with_another_kind_of_action_goes_to_argparse():
    text, func, arguments = _GRAMMAR["expand"]
    for keywords in ({"action": "store_true"}, {"nargs": "+"}):
        expand = (text, func, [*arguments, ("--quiet", keywords)])
        table = _argv_table({**_GRAMMAR, "expand": expand})
        assert "expand" not in table and "convert" in table


if __name__ == "__main__":
    for name, test in list(globals().items()):
        if name.startswith("test_"):
            test()
    total = sum(len(seeded_argvs(seed)) for seed in range(1, 6))
    settled = sum(check(seeded_argvs(seed)) for seed in range(1, 6))
    print(f"{settled} of {total} seeded argvs settled by the table, all equal to argparse's")
