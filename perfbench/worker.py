"""One benchmark session in a fresh interpreter.

Usage (from run.py): python3 -I perfbench/worker.py '<json spec>'

The spec names the workload, seed, size, whether to trace, and whether
this is a set-up probe only.  The worker imports qsym from the
``src`` directory of the checkout it lives in, builds the session's inputs,
runs every operation in a closed loop (one at a time, each waiting for the
previous result), then checks every output and prints one JSON object.
Times are CPU time scaled to reference seconds by a speed probe (see
``speed``); the loops do no I/O, so on an idle core CPU time equals wall
time.
A fresh process per session means qsym's lru_caches start cold every time.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKDIR = os.path.join(HERE, ".work")
SETTLE_SAMPLES = 5  # speed samples right after set-up, which can end before SIGPROF fires


def load_qsym():
    """Import qsym from this checkout's src, never from an installed copy."""
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    import qsym
    import qsym.cli

    if not os.path.abspath(qsym.__file__).startswith(src + os.sep):
        raise ImportError(f"qsym imported from {qsym.__file__}, not from {src}")
    return qsym


def _timed_checks(verification, probe, spans: list) -> None:
    """Time each verify check as one operation (run_all reads ALL_CHECKS)."""

    def timed(check):
        def wrapper(*args, **kwargs):
            start = probe.clock()
            try:
                return check(*args, **kwargs)
            finally:
                spans.append((start, probe.clock()))

        return wrapper

    verification.ALL_CHECKS = tuple(timed(c) for c in verification.ALL_CHECKS)


def _rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def run_verify(q, wl, probe) -> tuple[float, float, list]:
    spans: list[tuple[float, float]] = []
    _timed_checks(q.verification, probe, spans)
    out = io.StringIO()
    start = probe.clock()
    with contextlib.redirect_stdout(out):
        code = q.cli.main(["verify"])
    loop_s, rss_mb = probe.scaled(start, probe.clock()), _rss_mb()
    verdicts = wl.verify_ops(out.getvalue(), code)
    times = [probe.scaled(a, b) for a, b in spans]
    times += [0.0] * (len(verdicts) - len(times))
    ops = [
        [f"verify check {i + 1}", t, ok, wl.sha(line)]
        for i, (t, (ok, line)) in enumerate(zip(times, verdicts))
    ]
    return loop_s, rss_mb, ops


def run_ops(ops, probe) -> tuple[float, float, list]:
    """Closed loop over the operations, then check each output."""
    outputs = []
    start = probe.clock()
    for op in ops:
        began = probe.clock()
        try:
            result, error = op.run(), None
        except Exception as exc:  # a failing operation is counted, not fatal
            result, error = None, repr(exc)
        outputs.append((began, probe.clock(), result, error))
    loop_s, rss_mb = probe.scaled(start, probe.clock()), _rss_mb()
    rows = []
    for op, (began, ended, result, error) in zip(ops, outputs):
        seconds = probe.scaled(began, ended)
        ok, digest = False, "error"
        if error is None:
            digest = op.digest(result)
            try:
                ok = bool(op.check(result))
            except Exception as exc:
                error = f"check raised {exc!r}"
        rows.append([op.kind, seconds, ok, digest] + ([error] if error else []))
    return loop_s, rss_mb, rows


def main() -> int:
    spec = json.loads(sys.argv[1])
    sys.path.insert(0, HERE)
    import speed
    import tracing
    import workloads as wl

    workload, seed, size = spec["workload"], spec["seed"], spec["size"]
    if workload not in wl.WORKLOADS or size not in wl.SIZES:
        raise SystemExit(f"unknown workload or size in {spec}")
    workdir = None
    probe = speed.Probe()
    probe.start()
    start = probe.clock()
    q = load_qsym()
    try:
        if workload == "cli-session":
            os.makedirs(WORKDIR, exist_ok=True)
            workdir = tempfile.mkdtemp(dir=WORKDIR)
            ops = wl.cli_session(q, seed, size, workdir)
        elif workload == "algebra-dense":
            ops = wl.algebra_dense(q, seed, size)
        else:
            ops = None
        setup_end = probe.clock()
        for _ in range(SETTLE_SAMPLES):
            probe.sample()
        result = {"setup_s": probe.scaled(start, setup_end)}
        if not spec["probe"]:
            tracer = None
            if spec["trace"]:
                tracer = tracing.Tracer(probe.clock)
                tracer.install(q)
            loop_s, rss_mb, rows = (
                run_verify(q, wl, probe) if ops is None else run_ops(ops, probe)
            )
            result.update(
                loop_s=loop_s,
                rss_mb=rss_mb,
                ops=rows,
                trace=tracer.snapshot() if tracer else None,
            )
    finally:
        probe.stop()
        if workdir:
            shutil.rmtree(workdir, ignore_errors=True)
            with contextlib.suppress(OSError):
                os.rmdir(WORKDIR)
    result["slowdown"] = statistics.fmean(probe.took) / speed.REFERENCE_S
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
