"""The qsym benchmark: three workloads timed end to end and per layer.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (why each was chosen is recorded in BENCHMARK.json):

- ``verify``: the whole suite through ``qsym.cli.main(["verify"])``; one
  operation per check, each gated on PASS with this commit's case count.
- ``algebra-dense``: dense conversions among all bases, products, coproducts
  and antipodes in ``qsym.core``.
- ``cli-session``: 1,000 small seeded requests through ``qsym.cli.main``.

Each session runs in a fresh single-threaded worker process (so qsym's
caches start cold) with one closed-loop client.  Sessions run back to back
until ``--seconds`` of wall time and three sessions are done; every
session repeats the same seeded operations.  Times are CPU time scaled to
reference seconds by the speed of the core, which the worker samples while
it runs (see ``speed``).  With ``--trace 0`` the last line of stdout is a
JSON object carrying the end-to-end metrics, medians over the repeated
sessions (see ``end_to_end``); with
``--trace 1`` each session runs once untraced and once traced on the same
inputs, the two must return identical outputs, and the object carries the
per-layer metrics.  Outputs are checked by an independent evaluation of
the defining series and, for the seeds in references/, against digests
recorded at the commit that introduced the benchmark.

The exit status is non-zero, with no result line, when the checkout has no
qsym sources or a worker fails.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time

import tracing
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
REFERENCES = os.path.join(HERE, "references")

MIN_SESSIONS = 3  # repetitions of the same work; medians over them are reported
SETUP_SAMPLES = 9
WORKER_TIMEOUT_S = 60
START_LIMIT_S = 90  # no new session starts after this much wall time (runs end < 180 s)

END_TO_END = {
    "setup_s": "s",
    "verdict_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "peak_rss_mb": "MB",
}


class BenchError(RuntimeError):
    pass


def worker(workload, seed, size, trace=False, probe=False) -> dict:
    spec = {"workload": workload, "seed": seed, "size": size, "trace": trace, "probe": probe}
    try:
        proc = subprocess.run(
            [sys.executable, "-I", WORKER, json.dumps(spec)],
            capture_output=True, text=True, timeout=WORKER_TIMEOUT_S, cwd=ROOT,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker {spec} timed out") from exc
    if proc.returncode != 0:
        raise BenchError(f"worker {spec} failed:\n{proc.stderr[-3000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def percentile(values, share: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * share // 1))
    return ordered[int(rank) - 1]


def load_references(workload: str) -> dict:
    path = os.path.join(REFERENCES, f"{workload}.json")
    if not os.path.exists(path):
        return {}
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def count_failures(sessions, references: dict, seed: int) -> tuple[int, list]:
    """Operations that raised, failed their check or left the recorded digest."""
    digests = references.get(str(seed))
    failed, notes = 0, []
    for index, session in enumerate(sessions):
        for i, row in enumerate(session["ops"]):
            kind, _, ok, digest = row[:4]
            if ok and digests is not None and (i >= len(digests) or digests[i] != digest):
                ok = False
                row.append("differs from the recorded reference output")
            if not ok:
                failed += 1
                notes.append(f"session {index} op {i} ({kind}): {row[4:] or 'wrong result'}")
    return failed, notes


def run_sessions(workload, seed, seconds, size, trace):
    """Sessions back to back until ``seconds`` of wall time and enough sessions."""
    min_sessions = MIN_SESSIONS if size == "full" and not trace else 1
    began = time.monotonic()
    plain, traced = [], []
    while True:
        plain.append(worker(workload, seed, size))
        if trace:
            traced.append(worker(workload, seed, size, trace=True))
        elapsed = time.monotonic() - began
        if (elapsed >= seconds and len(plain) >= min_sessions) or elapsed > START_LIMIT_S:
            return plain, traced


def median_times(plain) -> tuple[list[float], float]:
    """Each operation's median time over the sessions, and the median session time."""
    columns = zip(*([row[1] for row in s["ops"]] for s in plain))
    return [statistics.median(c) for c in columns], statistics.median(s["loop_s"] for s in plain)


def end_to_end(workload, seed, size, plain) -> dict:
    """End-to-end figures, medians over the run's repeated sessions.

    Times are reference seconds (see ``speed``): CPU time of the
    single-threaded worker scaled by the core's speed, sampled while the
    session ran.  An operation's latency is its median over the sessions,
    which repeat the same operations.
    """
    setups = [s["setup_s"] for s in plain]
    while len(setups) < SETUP_SAMPLES:
        setups.append(worker(workload, seed, size, probe=True)["setup_s"])
    latencies, session_s = median_times(plain)
    values = {
        "setup_s": statistics.median(setups),
        "verdict_s": session_s,
        "ops_per_s": len(latencies) / session_s,
        "op_p50_ms": 1000 * percentile(latencies, 0.5),
        "op_p90_ms": 1000 * percentile(latencies, 0.9),
        "peak_rss_mb": statistics.median(s["rss_mb"] for s in plain),
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}


def per_layer(plain, traced) -> dict:
    """Per-layer metrics; a traced output that differs from the untraced one fails."""
    for a, b in zip(plain, traced):
        for row_a, row_b in zip(a["ops"], b["ops"]):
            if row_a[3] != row_b[3]:
                row_b[2] = False
                row_b.append("traced output differs from the untraced output")
    verbs: dict[str, list] = {}
    for session in plain:
        for row in session["ops"]:
            verbs.setdefault(row[0], []).append(1000 * row[1])
    overhead = sum(s["loop_s"] for s in traced) / sum(s["loop_s"] for s in plain) - 1
    snapshots = [s["trace"] for s in traced]
    return tracing.layer_metrics(snapshots, verbs, overhead)


def environment(seed, workload, plain) -> dict:
    sha = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        sha = proc.stdout.strip() or None
    src = hashlib.sha256()
    pkg = os.path.join(ROOT, "src", "qsym")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as handle:
                src.update(name.encode() + handle.read())
    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next((ln.split(":", 1)[1].strip() for ln in handle if ln.startswith("model name")), cpu)
    except OSError:
        pass
    counts: dict[str, int] = {}
    for session in plain:
        for row in session["ops"]:
            counts[row[0]] = counts.get(row[0], 0) + 1
    return {
        "git_sha": sha, "src_sha256": src.hexdigest(), "python": platform.python_version(),
        "nproc": os.cpu_count(), "cpu": cpu, "seed": seed, "workload": workload,
        "sessions": len(plain), "operations": counts,
        "slowdown": statistics.median(s["slowdown"] for s in plain),
    }


def run(workload: str, seed: int, seconds: float, trace: bool, size: str = "full") -> dict:
    """One benchmark run; returns the result object plus environment and notes."""
    if not os.path.isfile(os.path.join(ROOT, "src", "qsym", "__init__.py")):
        raise BenchError(f"no qsym sources under {ROOT}/src")
    plain, traced = run_sessions(workload, seed, seconds, size, trace)
    references = load_references(workload) if size == "full" else {}
    if trace:
        metrics = per_layer(plain, traced)
        checked = traced
    else:
        metrics = end_to_end(workload, seed, size, plain)
        checked = plain
    failed, notes = count_failures(checked, references, seed)
    attempted = sum(len(s["ops"]) for s in checked)
    return {
        "result": {"correct": failed == 0, "attempted": attempted, "failed": failed,
                   "metrics": metrics},
        "environment": environment(seed, workload, plain),
        "notes": notes,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=8)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        out = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    result = out["result"]
    for note in out["notes"][:20]:
        print(f"FAILED {note}")
    for name, metric in result["metrics"].items():
        print(f"{name} {metric['value']} {metric['unit']}")
    print(f"failed_share {result['failed'] / result['attempted']} ratio")
    print("environment " + json.dumps(out["environment"], sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
