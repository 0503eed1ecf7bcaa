"""Per-layer spans and counters, recorded from outside the qsym package.

``install`` replaces public qsym functions, under every name their callers
bind, with wrappers that open a span around the call.  Spans nest on one
stack; a span's self time is its duration minus the time of the spans
opened inside it.  Generators (``subsets``, ``quasi_shuffles``) open a
span around every item they produce and count the items against the
innermost span around them.  Wrappers only read what a call returns:
``gamma`` hands back a shared cached polynomial, so nothing here may
modify a returned object.

Statistics are aggregated in memory per span name and reported once at
the end, as the ``per_layer`` metrics named in BENCHMARK.json.
"""

from __future__ import annotations

import functools
import re
import statistics
from collections import defaultdict

CLI_VERBS = ("convert", "multiply", "coproduct", "antipode", "expand", "gamma", "u-function")
CHECK_NAMES = (
    "golden_examples", "basis_round_trip", "eta_product_rule", "eta_coproduct",
    "antipode", "specializations", "shuffle_products", "u_expansion",
    "peak_conversion", "signed_subset_sum",
)
_GENERATORS = ("quasi_shuffles", "subsets")
_LISTS = ("shuffles", "coshuffles")

# (name, unit, better, should move) for every per-layer metric.
METRICS: list[tuple[str, str, str, str]] = []


def _metric(name, unit, better, moves):
    METRICS.append((name, unit, better, moves))


_DENSE = "ops_per_s and op_p90_ms on algebra-dense; verdict_s on verify"
for _g in _GENERATORS + _LISTS:
    _metric(f"combinatorics.{_g}.items", "count", "lower", _DENSE)
_metric("combinatorics.self_s", "s", "lower", _DENSE)
_CORE = _DENSE + "; op_p50_ms on cli-session"
for _f in ("convert", "multiply"):
    _metric(f"core.{_f}.calls", "count", "lower", _CORE)
    _metric(f"core.{_f}.self_s", "s", "lower", _CORE)
    _metric(f"core.{_f}.terms_out", "count", "lower", _CORE)
    _metric(f"core.{_f}.useful_ratio", "ratio", "higher", _CORE)
_metric("core.eta_product.calls", "count", "lower", _CORE)
_metric("core.eta_product.self_s", "s", "lower", _CORE)
_metric("core.coproduct.self_s", "s", "lower", _CORE)
_metric("core.antipode.self_s", "s", "lower", _CORE)
_EXPANSION = "verdict_s on verify; cli.expand.p50_ms on cli-session"
_metric("expansion.expand.calls", "count", "lower", _EXPANSION)
_metric("expansion.expand.self_s", "s", "lower", _EXPANSION)
_metric("expansion.expand.monomials_out", "count", "lower", _EXPANSION)
_metric("expansion.expand.term_repeat_share", "ratio", "lower", _EXPANSION)
_metric("expansion.certify_equal.calls", "count", "lower", _EXPANSION)
_metric("expansion.certify_equal.self_s", "s", "lower", _EXPANSION)
for _f in ("poly_mul", "poly_add"):
    _metric(f"expansion.{_f}.calls", "count", "lower", _EXPANSION)
    _metric(f"expansion.{_f}.self_s", "s", "lower", _EXPANSION)
_PP = "verdict_s on verify (chains); cli.gamma.p50_ms on cli-session (small posets)"
_metric("ppartitions.gamma.calls", "count", "lower", _PP)
_metric("ppartitions.gamma.self_s", "s", "lower", _PP)
_metric("ppartitions.gamma.monomials_out", "count", "lower", _PP)
_metric("ppartitions.gamma.repeat_share", "ratio", "lower", _PP)
_metric("ppartitions.gamma_chain.self_s", "s", "lower", _PP)
_metric("ppartitions.gamma_poset.self_s", "s", "lower", _PP)
_metric("ppartitions.universal_gamma.calls", "count", "lower", _PP)
_metric("ppartitions.universal_gamma.self_s", "s", "lower", _PP)
_metric("ppartitions.universal_to_eta.self_s", "s", "lower", _PP)
for _c in CHECK_NAMES:
    _metric(f"verification.{_c}.self_s", "s", "lower", "verdict_s on verify")
    _metric(f"verification.{_c}.cases", "count", "higher", "verdict_s on verify")
_CLI = "op_p50_ms and op_p90_ms on cli-session"
_metric("cli.parse_element.self_s", "s", "lower", _CLI)
_metric("cli.format.self_s", "s", "lower", _CLI)
_metric("cli.main.self_s", "s", "lower", _CLI)
for _v in CLI_VERBS:
    _metric(f"cli.{_v}.p50_ms", "ms", "lower", _CLI)
_metric("trace.overhead_share", "ratio", "lower", "none")


def _size(obj) -> int:
    terms = getattr(obj, "terms", None)
    return len(terms) if terms is not None else 0


class Tracer:
    """One stack of open spans and per-name totals for one worker process."""

    def __init__(self, clock):
        self.clock = clock
        self.stack: list[list] = []  # [name, child seconds]
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.count: dict[str, int] = defaultdict(int)  # items, terms, monomials
        self.seen: set = set()

    def _close(self, name: str, start: float) -> float:
        duration = self.clock() - start
        _, children = self.stack.pop()
        self.self_s[name] += duration - children
        if self.stack:
            self.stack[-1][1] += duration
        return duration

    def _credit(self, key: str, amount: int) -> None:
        """Add ``amount`` to counter ``key`` of the innermost open span."""
        if self.stack:
            self.count[f"{self.stack[-1][0]}.{key}"] += amount

    def span(self, name: str, fn, after=None, before=None):
        """Wrap fn in a span named before(args), or name.

        after(label, result, args) runs once the span is closed.
        """

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            label = before(args) if before else name
            self.calls[label] += 1
            self.stack.append([label, 0.0])
            start = self.clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(label, start)
            if after:
                after(label, result, args)
            return result

        return wrapper

    def generator(self, name: str, fn):
        """Wrap a function returning an iterator; every next() is a span."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.calls[name] += 1
            iterator = iter(fn(*args, **kwargs))
            while True:
                self.stack.append([name, 0.0])
                start = self.clock()
                try:
                    item = next(iterator)
                except StopIteration:
                    self._close(name, start)
                    return
                except BaseException:
                    self._close(name, start)
                    raise
                self._close(name, start)
                self.count[f"{name}.items"] += 1
                self._credit("items", 1)
                yield item

        return wrapper

    def listing(self, name: str, fn):
        """Wrap a function returning a list; its length counts as items."""

        def after(label, result, args):
            self.count[f"{name}.items"] += len(result)
            self._credit("items", len(result))

        return self.span(name, fn, after)

    def _terms_out(self, label, result, args):
        self.count[f"{label}.terms_out"] += _size(result)

    def _expand_after(self, label, result, args):
        element, nvars = args[0], args[1]
        self.count[f"{label}.monomials_out"] += _size(result)
        for comp in element.terms:
            key = ("expand", element.basis, comp, nvars)
            self.count[f"{label}.terms"] += 1
            if key in self.seen:
                self.count[f"{label}.term_repeats"] += 1
            self.seen.add(key)

    def _gamma_after(self, label, result, args):
        poset, alphabet = args[0], args[1]
        nvars = args[2] if len(args) > 2 else None
        self.count[f"{label}.monomials_out"] += _size(result)
        key = ("gamma", poset, tuple(alphabet), nvars)
        if key in self.seen:
            self.count[f"{label}.repeats"] += 1
        self.seen.add(key)

    def install(self, q) -> None:
        """Wrap qsym's public functions in every module namespace that binds them."""
        mods = {
            "qsym": q, "core": q.core, "combinatorics": q.combinatorics,
            "expansion": q.expansion, "ppartitions": q.ppartitions,
            "verification": q.verification, "cli": q.cli,
        }

        def patch(func_name, wrapped, where):
            for mod in where:
                if hasattr(mods[mod], func_name):
                    setattr(mods[mod], func_name, wrapped)

        originals = {n: getattr(q.combinatorics, n) for n in _GENERATORS + _LISTS}
        # subsets is also patched inside combinatorics so that compositions()
        # counts; quasi_shuffles is not, or its recursion would count each level.
        patch("subsets", self.generator("combinatorics.subsets", originals["subsets"]),
              ("core", "ppartitions", "combinatorics"))
        patch("quasi_shuffles",
              self.generator("combinatorics.quasi_shuffles", originals["quasi_shuffles"]),
              ("core",))
        patch("shuffles", self.listing("combinatorics.shuffles", originals["shuffles"]),
              ("verification", "qsym"))
        patch("coshuffles", self.listing("combinatorics.coshuffles", originals["coshuffles"]),
              ("ppartitions", "qsym"))

        everywhere = ("qsym", "core", "cli", "verification", "expansion", "ppartitions")
        for fn in ("convert", "multiply"):
            patch(fn, self.span(f"core.{fn}", getattr(q.core, fn), self._terms_out), everywhere)
        for fn in ("eta_product", "coproduct", "antipode"):
            patch(fn, self.span(f"core.{fn}", getattr(q.core, fn)), everywhere)

        patch("expand", self.span("expansion.expand", q.expansion.expand, self._expand_after),
              everywhere)
        for fn in ("certify_equal", "poly_mul", "poly_add"):
            patch(fn, self.span(f"expansion.{fn}", getattr(q.expansion, fn)), everywhere)

        patch("gamma", self.span("ppartitions.gamma", q.ppartitions.gamma, self._gamma_after,
                                 self._gamma_kind), everywhere)
        for fn in ("universal_gamma", "universal_to_eta"):
            patch(fn, self.span(f"ppartitions.{fn}", getattr(q.ppartitions, fn)), everywhere)

        v = q.verification
        v.ALL_CHECKS = tuple(
            self.span(f"verification.{check.__name__[len('check_'):]}", check, self._cases)
            for check in v.ALL_CHECKS
        )

        patch("main", self.span("cli.main", q.cli.main), ("cli",))
        patch("parse_element", self.span("cli.parse_element", q.cli.parse_element), ("cli",))
        for fn in ("_emit_element", "_emit_poly", "format_tensor", "_print_json"):
            patch(fn, self.span("cli.format", getattr(q.cli, fn)), ("cli",))

    def _gamma_kind(self, args):
        """gamma spans are split by whether the poset is a chain."""
        chain = args[0].chain_order() is not None
        return "ppartitions.gamma_chain" if chain else "ppartitions.gamma_poset"

    def _cases(self, label, result, args):
        match = re.match(r"(\d+) ", result.detail)
        self.count[f"{label}.cases"] += int(match.group(1)) if match else 0

    def snapshot(self) -> dict:
        return {"self_s": dict(self.self_s), "calls": dict(self.calls), "count": dict(self.count)}


def merge(snapshots) -> dict:
    total = {"self_s": defaultdict(float), "calls": defaultdict(int), "count": defaultdict(int)}
    for snap in snapshots:
        for part in total:
            for key, value in snap[part].items():
                total[part][key] += value
    return total


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def layer_metrics(snapshots, verb_latencies: dict, overhead_share: float) -> dict:
    """Every per-layer metric in METRICS, from the traced sessions' snapshots.

    Times and counts are per session (totals divided by the number of traced
    sessions), so runs that fit different numbers of sessions compare.
    """
    t = merge(snapshots)
    s, calls, count = t["self_s"], t["calls"], t["count"]
    gamma_calls = calls["ppartitions.gamma_chain"] + calls["ppartitions.gamma_poset"]
    values = {
        "combinatorics.self_s": sum(s[f"combinatorics.{g}"] for g in _GENERATORS + _LISTS),
        "ppartitions.gamma.calls": gamma_calls,
        "ppartitions.gamma.self_s": s["ppartitions.gamma_chain"] + s["ppartitions.gamma_poset"],
        "ppartitions.gamma.monomials_out": count["ppartitions.gamma_chain.monomials_out"]
        + count["ppartitions.gamma_poset.monomials_out"],
        "ppartitions.gamma.repeat_share": _ratio(
            count["ppartitions.gamma_chain.repeats"] + count["ppartitions.gamma_poset.repeats"],
            gamma_calls,
        ),
        "expansion.expand.term_repeat_share": _ratio(
            count["expansion.expand.term_repeats"], count["expansion.expand.terms"]
        ),
        "trace.overhead_share": overhead_share,
    }
    for fn in ("convert", "multiply"):
        name = f"core.{fn}"
        values[f"{name}.useful_ratio"] = _ratio(count[f"{name}.terms_out"], count[f"{name}.items"])
    for verb in CLI_VERBS:
        samples = verb_latencies.get(verb)
        values[f"cli.{verb}.p50_ms"] = statistics.median(samples) if samples else 0.0

    out = {}
    sessions = max(len(snapshots), 1)
    for name, unit, _, _ in METRICS:
        if name in values:
            value = values[name]
        else:
            base, _, stat = name.rpartition(".")
            value = {"self_s": s, "calls": calls}.get(stat, count)[
                base if stat in ("self_s", "calls") else name
            ]
        if unit in ("s", "count"):
            value /= sessions
        out[name] = {"value": value, "unit": unit}
    return out
