"""CLI_SESSION: the argvs that tests/data/cli_session_stdout.txt was recorded from."""

import pathlib

# One process, one request after another: every verb in text and JSON, an
# element parse error and an argparse usage error in the middle, so the
# later requests run after failed ones.  Exit code 2 is argparse's SystemExit.
POSET = str(pathlib.Path(__file__).parent / "data" / "poset_fork.json")
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
    (["gamma", "--poset", POSET, "--zset", "P", "--nvars", "3"], 0),
    (["convert", "M[1] + L[2]", "--to", "eta"], 1),
    (["gamma", "--poset", POSET, "--zset", "Ppm", "--nvars", "2", "--format", "json"], 0),
    (["u-function", "1 3 2", "1,1,1"], 0),
    (["convert", "M[1]"], 2),
    (["u-function", "1 3 2", "1,2,1", "--format", "json"], 0),
    (["u-function", "12", "2,1", "--zset", "P", "--nvars", "2"], 0),
    (["u-function", "231", "1,1,1", "--zset=-1,+1,-2", "--format", "json"], 0),
    (["convert", "K[3,1]", "--to", "L"], 0),
    (["convert", "eta[1,1] - 2*eta[3]", "--to", "K", "--format", "json"], 0),
    (["multiply", "K[1]", "K[3]", "--format", "json"], 0),
    (["gamma", "--poset", POSET, "--zset=1,-1,2"], 0),
    (["antipode", "K[1,3]"], 0),
    (["verify", "--max-degree", "2"], 0),
]
