"""Record the output digests that later runs are checked against.

Usage, from the root of a checkout:  python3 perfbench/record_references.py

For the library and CLI workloads and each reference seed, runs one session
and writes every operation's output digest to
perfbench/references/<workload>.json, keyed by seed.
Only run this at a commit whose outputs are known to be right; nothing is
written unless every operation also passes its independent check.
"""

from __future__ import annotations

import json
import os
import sys

import run

SEEDS = (1, 2, 3, 4, 5)
WORKLOADS = ("algebra-dense", "cli-session")


def main() -> int:
    os.makedirs(run.REFERENCES, exist_ok=True)
    for workload in WORKLOADS:
        rows = []
        for seed in SEEDS:
            result = run.worker(workload, seed, "full")
            bad = [row for row in result["ops"] if not row[2]]
            if bad:
                print(f"{workload} seed {seed}: failed {bad[:3]}")
                return 1
            rows.append(f'"{seed}": {json.dumps([row[3] for row in result["ops"]])}')
        path = os.path.join(run.REFERENCES, f"{workload}.json")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("{\n" + ",\n".join(rows) + "\n}\n")
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
