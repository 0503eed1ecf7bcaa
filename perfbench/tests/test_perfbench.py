"""Self-tests of the benchmark, at tiny sizes.

Run from the root of a checkout:  python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import os
import random
import sys
from fractions import Fraction

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))

import evaluate as ev  # noqa: E402
import qsym  # noqa: E402
import qsym.cli  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
import workloads as wl  # noqa: E402

LIBRARY = ("algebra-dense", "cli-session")


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def test_benchmark_json_names_every_reported_metric():
    spec = _spec()
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == [
        (name, unit) for name, unit, _, _ in tracing.METRICS
    ]
    assert [w["name"] for w in spec["workloads"]] == list(wl.WORKLOADS)


@pytest.mark.parametrize("workload", LIBRARY)
@pytest.mark.parametrize("trace", [False, True])
def test_tiny_run_reports_every_metric_with_its_unit(workload, trace):
    out = run.run(workload, 7, 0.01, trace, size="tiny")
    result = out["result"]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    want = (
        {name: unit for name, unit, _, _ in tracing.METRICS} if trace else run.END_TO_END
    )
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())
    env = out["environment"]
    assert env["seed"] == 7 and env["nproc"] >= 1 and env["operations"]


def test_verify_session_passes_the_case_count_gate():
    result = run.worker("verify", 1, "full")
    assert [row[2] for row in result["ops"]] == [True] * 10
    assert all(row[1] > 0 for row in result["ops"])


def test_verify_gate_rejects_a_wrong_count_or_a_failure():
    lines = [f"PASS  check {i}: {n} cases" for i, n in enumerate(wl.VERIFY_CASES)]
    assert all(ok for ok, _ in wl.verify_ops("\n".join(lines), 0))
    assert not any(ok for ok, _ in wl.verify_ops("\n".join(lines), 1))
    fewer = lines[:3] + [lines[3].replace("84 cases", "0 cases")] + lines[4:]
    assert [ok for ok, _ in wl.verify_ops("\n".join(fewer), 0)].count(False) == 1
    failing = lines[:-1] + [lines[-1].replace("PASS", "FAIL")]
    assert [ok for ok, _ in wl.verify_ops("\n".join(failing), 0)].count(False) == 1


def _run_ops(ops):
    probe = speed.Probe()
    probe.sample()
    return worker.run_ops(ops, probe)


def _ops(workload, tmp_path):
    if workload == "cli-session":
        return wl.cli_session(qsym, 3, "tiny", str(tmp_path))
    return getattr(wl, workload.replace("-", "_"))(qsym, 3, "tiny")


def _failed_share(rows) -> float:
    failed, _ = run.count_failures([{"ops": rows}], {}, 3)
    return failed / len(rows)


@pytest.mark.parametrize(
    "workload, module, name",
    [
        ("algebra-dense", qsym.core, "convert"),
        ("algebra-dense", qsym.core, "multiply"),
        ("cli-session", qsym.cli, "expand"),
        ("cli-session", qsym.cli, "gamma"),
        ("cli-session", qsym.cli, "antipode"),
    ],
)
def test_an_injected_wrong_result_raises_failed_share(workload, module, name, tmp_path, monkeypatch):
    _, _, rows = _run_ops(_ops(workload, tmp_path))
    assert _failed_share(rows) == 0
    original = getattr(module, name)

    def wrong(*args, **kwargs):
        out = original(*args, **kwargs)
        if isinstance(out, qsym.QSymElement):
            return out + qsym.QSymElement.term(out.basis, (1,))
        return qsym.expansion.poly_add(out, qsym.TruncatedPoly(out.nvars, out.degree, {(): 1}))

    monkeypatch.setattr(module, name, wrong)
    _, _, rows = _run_ops(_ops(workload, tmp_path))
    assert _failed_share(rows) > 0


def test_speed_probe_scales_by_the_calibration_time_around_an_interval():
    probe = speed.Probe()
    probe.at = [0.0, 0.5, 1.0, 5.0]
    probe.took = [2 * speed.REFERENCE_S] * 3 + [speed.REFERENCE_S]
    assert probe.scaled(0.0, 1.0) == pytest.approx(0.5)  # the core ran at half speed
    assert probe.scaled(5.0, 5.5) == pytest.approx(0.5)  # at full speed


def test_a_changed_digest_counts_as_failed():
    rows = [["convert M->L", 0.1, True, "abc"], ["convert L->M", 0.1, True, "def"]]
    failed, notes = run.count_failures([{"ops": rows}], {"3": ["abc", "xyz"]}, 3)
    assert failed == 1 and "reference" in notes[0]


# ---------------------------------------------------------------------------
# the independent checker agrees with qsym's own oracle


def test_series_values_match_expand_and_the_antipode_forms():
    rng = random.Random(11)
    for n in range(0, 6):
        xs = ev.random_point(rng, n + 1)
        for basis in qsym.BASES:
            for comp in qsym.compositions(n):
                if basis == "K" and any(p % 2 == 0 for p in comp):
                    continue
                term = qsym.QSymElement.term(basis, comp)
                poly = qsym.expand(term, len(xs), n)
                assert ev.poly_value(poly.terms.items(), xs) == ev.basis_value(basis, comp, xs)
                image = qsym.antipode(term)
                got = ev.element_value(image.basis, image.terms.items(), xs)
                assert got == ev.antipode_value(basis, comp, xs)


def test_poset_values_match_gamma():
    rng = random.Random(5)
    for _ in range(60):
        n = rng.randint(1, 4)
        relations = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1) if rng.random() < 0.4]
        perm = rng.sample(range(1, n + 1), n)
        relations = [(perm[i - 1], perm[j - 1]) for i, j in relations]
        weights = [rng.randint(1, 2) for _ in range(n)]
        poset = qsym.LabelledWeightedPoset(n, relations, weights)
        alphabet = rng.choice([qsym.signed_alphabet(3), qsym.positive_alphabet(3), (-1, 2, -3)])
        xs = ev.random_point(rng, 3)
        poly = qsym.gamma(poset, alphabet, 3)
        assert ev.poly_value(poly.terms.items(), xs) == ev.poset_value(n, relations, weights, alphabet, xs)


def test_cli_output_readers_round_trip():
    elem = qsym.QSymElement("eta", {(1, 2): Fraction(-3, 2), (3,): 1, (): 2})
    text = qsym.cli.format_element(elem)
    assert wl.read_element(text, "text") == ("eta", [(c, v) for c, v in elem.sorted_terms()])
    tensor = qsym.coproduct(elem)
    bases, terms = wl.read_tensor(qsym.cli.format_tensor(tensor), "text")
    assert bases == tensor.bases and dict(terms) == dict(tensor.terms)
    poly = qsym.expand(qsym.QSymElement("L", {(2, 1): Fraction(-1, 3), (1,): 2}), 3, 3)
    assert dict(wl.read_poly(qsym.expansion.format_poly(poly), "text")) == dict(poly.terms)
    assert dict(wl.read_poly(json.dumps(poly.to_json_dict()), "json")) == dict(poly.terms)


# ---------------------------------------------------------------------------
# a low-degree sample of the recorded references, certified by expansion


def _references(workload):
    refs = run.load_references(workload)
    assert refs, f"no references recorded for {workload}"
    return refs["1"]


def test_reference_products_certify_by_expansion():
    digests = _references("algebra-dense")
    ops = wl.algebra_dense(qsym, 1, "full")
    sample = 0
    for op, digest in zip(ops, digests):
        if not op.kind.startswith("multiply"):
            continue
        a, b = op.run.__defaults__
        d = a.degree + b.degree
        if d > 7:
            continue
        out = op.run()
        assert op.digest(out) == digest
        want = qsym.poly_mul(qsym.expand(a, d, a.degree), qsym.expand(b, d, b.degree))
        assert qsym.expand(out, d, d) == want
        sample += 1
    assert sample >= 8


def test_reference_cli_conversions_certify(tmp_path):
    digests = _references("cli-session")
    ops = wl.cli_session(qsym, 1, "full", str(tmp_path))
    sample = 0
    for op, digest in zip(ops, digests):
        argv = op.run.__defaults__[0]
        if argv[0] != "convert":
            continue
        code, out = op.run()
        assert code == 0 and op.digest((code, out)) == digest
        fmt = "json" if "json" in argv else "text"
        basis, terms = wl.read_element(out, fmt)
        image = qsym.QSymElement(basis, terms)
        source = qsym.cli.parse_element(argv[1])
        if max(image.degree, source.degree) <= 6:
            assert qsym.certify_equal(image, source)
            sample += 1
    assert sample >= 50
