"""Seeded inputs and operations for the three benchmark workloads.

A workload's inputs depend on the seed only, so every session of a run
repeats the same operations.  The shape of each operation (kind, basis
pair, degree, number and length of terms) comes from a fixed schedule, and
the seed picks the concrete compositions, coefficients, labellings and
evaluation points.  The cost of the qsym rules depends on those shapes and
hardly on the concrete parts, so the work is nearly the same for every
seed while the inputs are new.

Each operation carries its own correctness check (see ``evaluate``), which
never goes through the qsym rule being timed.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable

import evaluate as ev

WORKLOADS = ("verify", "algebra-dense", "cli-session")
SIZES = ("full", "tiny")

# Case counts of the ten verify checks at their default bounds, in suite order.
VERIFY_CASES = (10, 256, 576, 84, 224, 430, 1012, 1944, 34, 1024)


@dataclass
class Op:
    kind: str  # label used to group latencies and counts
    run: Callable[[], Any]
    check: Callable[[Any], bool]
    digest: Callable[[Any], str]


def sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def json_digest(obj) -> str:
    return sha(json.dumps(obj.to_json_dict(), sort_keys=True))


# ---------------------------------------------------------------------------
# seeded shapes


def composition(rng, n: int, length: int) -> tuple:
    cuts = sorted(rng.sample(range(1, n), length - 1))
    bounds = [0] + cuts + [n]
    return tuple(b - a for a, b in zip(bounds, bounds[1:]))


def odd_composition(rng, n: int, length: int) -> tuple:
    """Odd parts only; needs length <= n and length = n (mod 2)."""
    return tuple(2 * a - 1 for a in composition(rng, (n + length) // 2, length))


def all_compositions(n: int):
    for mask in range(1 << (n - 1)):
        cuts = [i for i in range(1, n) if mask >> (i - 1) & 1]
        bounds = [0] + cuts + [n]
        yield tuple(b - a for a, b in zip(bounds, bounds[1:]))


def fit_length(basis: str, degree: int, length: int) -> int:
    """Clamp a term length into [1, degree]; K terms need length = degree (mod 2)."""
    length = max(1, min(length, degree))
    if basis == "K" and (degree - length) % 2:
        length += 1 if length < degree else -1
    return length


def coefficient(rng) -> Fraction:
    return Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.choice((1, 2, 3, 4)))


def sparse_terms(rng, basis: str, degree: int, lengths) -> list:
    """Terms of one degree with the given lengths (odd parts for K)."""
    make = odd_composition if basis == "K" else composition
    terms = {}
    for length in lengths:
        comp = make(rng, degree, length)
        terms[comp] = coefficient(rng)
    return list(terms.items())


def dense_terms(rng, basis: str, n: int) -> list:
    """The whole degree-n component: every composition (odd ones for K)."""
    comps = all_compositions(n)
    if basis == "K":
        comps = (c for c in comps if all(p % 2 for p in c))
    return [(c, coefficient(rng)) for c in comps]


def _point(rng, k):
    return ev.random_point(rng, max(k, 1))


# ---------------------------------------------------------------------------
# checks shared by the library workloads


def same_value(basis_in, terms_in, out, xs) -> bool:
    return ev.element_value(out.basis, out.terms.items(), xs) == ev.element_value(
        basis_in, terms_in, xs
    )


def check_convert(basis_in, terms_in, target, rng):
    degree = max((sum(c) for c, _ in terms_in), default=0)
    xs = _point(rng, degree)
    return lambda out: out.basis == target and same_value(basis_in, terms_in, out, xs)


def check_multiply(a, b, rng):
    xs = _point(rng, a.degree + b.degree)
    want = ev.element_value(a.basis, a.terms.items(), xs) * ev.element_value(
        b.basis, b.terms.items(), xs
    ) % ev.PRIME
    out_basis = "eta" if a.basis == "K" else a.basis
    return lambda out: out.basis == out_basis and ev.element_value(
        out.basis, out.terms.items(), xs
    ) == want


def check_coproduct(a, rng):
    k = max(a.degree, 1)
    xs, ys = _point(rng, k), _point(rng, k)
    want = ev.element_value(a.basis, a.terms.items(), xs + ys)
    return lambda out: ev.tensor_value(out.bases, out.terms.items(), xs, ys) == want


def check_antipode(a, rng):
    xs = _point(rng, a.degree)
    want = ev.element_value(a.basis, a.terms.items(), xs, ev.antipode_value)
    return lambda out: ev.element_value(out.basis, out.terms.items(), xs) == want


# ---------------------------------------------------------------------------
# algebra-dense: conversions, products, coproducts and antipodes in core


# (degree, source, target) of the dense conversions.  eta->L at degree 10
# is the slowest conversion at this commit and stays in the mix.
_PAIRS = [(a, b) for a in ("M", "L", "eta") for b in ("M", "L", "eta") if a != b]
_CONVERSIONS = (
    [(8, a, b) for a, b in _PAIRS]
    + [(9, a, b) for a, b in _PAIRS if (a, b) != ("eta", "L")]
    + [(10, "eta", "L")]
)
# (degree, target): dense K elements to other bases and those images back to K.
_PEAK_CONVERSIONS = [(8, "M"), (8, "L"), (8, "eta"), (9, "eta")]
# (degree, bases) of the dense coproducts and antipodes.
_HOPF = [(8, ("M", "L", "eta", "K")), (9, ("M", "eta", "K")), (10, ("eta", "K"))]

# ((degree of a, term lengths of a), (degree of b, term lengths of b)).
# L products are costly when terms are short (many refinements), so L gets
# long terms except in one product at total degree 12, the slow path.
_SHAPES_M_ETA = [
    ((3, [1, 2]), (2, [1, 2])), ((3, [2, 3]), (3, [1, 2, 3])),
    ((4, [2, 3]), (3, [2, 3])), ((4, [2, 3, 4]), (4, [2, 3])),
    ((5, [3, 4]), (4, [2, 3, 4])), ((5, [2, 3, 4]), (5, [3, 4])),
    ((6, [3, 4]), (5, [3, 4])), ((6, [3, 4, 5]), (6, [2, 4])),
    ((7, [4, 5]), (5, [3, 4])), ((8, [4, 5]), (4, [2, 3])),
    ((6, [5, 6]), (6, [5, 6])), ((6, [4, 5, 6]), (6, [4, 5])),
    ((7, [5, 6]), (4, [2, 3, 4])), ((9, [5, 6]), (3, [1, 2])),
    ((2, [1, 2]), (2, [1, 2])), ((3, [1, 3]), (2, [1, 2])),
]
_PRODUCTS = {
    "M": _SHAPES_M_ETA,
    "eta": _SHAPES_M_ETA,
    "K": [
        ((3, [1, 3]), (3, [1, 3])), ((4, [2, 4]), (3, [1, 3])),
        ((5, [3, 5]), (4, [2, 4])), ((5, [1, 3, 5]), (5, [3, 5])),
        ((6, [2, 4]), (5, [3, 5])), ((6, [4, 6]), (6, [2, 4])),
        ((7, [3, 5]), (5, [3, 5])), ((7, [5, 7]), (5, [1, 3])),
        ((8, [4, 6]), (4, [2, 4])), ((6, [2, 4, 6]), (6, [2, 4])),
        ((9, [5, 7]), (3, [1, 3])), ((7, [3, 5, 7]), (5, [3, 5])),
        ((4, [2, 4]), (4, [2, 4])), ((5, [3, 5]), (3, [1, 3])),
        ((6, [2, 4]), (3, [1, 3])),
    ],
    "L": [
        ((3, [2, 3]), (2, [1, 2])), ((3, [2, 3]), (3, [2, 3])),
        ((4, [3, 4]), (3, [2, 3])), ((4, [2, 3]), (4, [3, 4])),
        ((5, [3, 4]), (4, [3, 4])), ((5, [4, 5]), (5, [3, 4])),
        ((6, [5, 4]), (4, [3, 4])), ((6, [4, 3]), (6, [3, 4])),
        ((7, [6, 5]), (3, [2, 3])), ((8, [7, 6]), (2, [1, 2])),
        ((5, [4, 5]), (5, [4, 5])), ((6, [5, 6]), (4, [3, 4])),
        ((5, [4, 3, 5]), (4, [3, 4])), ((6, [5, 6]), (3, [2, 3])),
        ((4, [3, 4]), (4, [3, 4])),
    ],
}


def algebra_dense(q, seed: int, size: str) -> list[Op]:
    core = q.core
    rng = random.Random(f"algebra-dense/{seed}")
    checks = random.Random(f"algebra-dense/{seed}/points")
    shift, cap = (0, 12) if size == "full" else (5, 5)
    ops: list[Op] = []

    for n, a, b in _CONVERSIONS:
        x = q.QSymElement(a, dense_terms(rng, a, n - shift))
        ops.append(
            Op(f"convert {a}->{b}", lambda x=x, b=b: core.convert(x, b),
               check_convert(a, list(x.terms.items()), b, checks), json_digest)
        )

    # The images of a K element lie in the peak span, so they convert back.
    for n, target in _PEAK_CONVERSIONS:
        x = q.QSymElement("K", dense_terms(rng, "K", n - shift))
        terms = list(x.terms.items())
        ops.append(
            Op(f"convert K->{target}", lambda x=x, t=target: core.convert(x, t),
               check_convert("K", terms, target, checks), json_digest)
        )
        ops.append(
            Op(f"convert {target}->K", lambda x=x, t=target: core.convert(core.convert(x, t), "K"),
               check_convert("K", terms, "K", checks), json_digest)
        )

    for basis, shapes in _PRODUCTS.items():
        for (da, la), (db, lb) in shapes:
            if da + db > cap:
                continue
            a = q.QSymElement(basis, sparse_terms(rng, basis, da, la))
            b = q.QSymElement(basis, sparse_terms(rng, basis, db, lb))
            ops.append(
                Op(f"multiply {basis}", lambda a=a, b=b: core.multiply(a, b),
                   check_multiply(a, b, checks), json_digest)
            )

    for n, bases in _HOPF:
        for basis in bases:
            x = q.QSymElement(basis, dense_terms(rng, basis, n - shift))
            ops.append(
                Op(f"coproduct {basis}", lambda x=x: core.coproduct(x),
                   check_coproduct(x, checks), json_digest)
            )
            ops.append(
                Op(f"antipode {basis}", lambda x=x: core.antipode(x),
                   check_antipode(x, checks), json_digest)
            )
    return ops


# ---------------------------------------------------------------------------
# cli-session: many small requests through qsym.cli.main


_TERM_RE = re.compile(r"\s*([+-])?\s*(?:(\d+(?:/\d+)?)\*)?(M|L|K|eta)\[([\d,]*)\]")
_TENSOR_RE = re.compile(
    r"\s*([+-])?\s*(?:(\d+(?:/\d+)?)\*)?(M|L|K|eta)\[([\d,]*)\] \(x\) (M|L|K|eta)\[([\d,]*)\]"
)


def _parts(text: str) -> tuple:
    return tuple(int(p) for p in text.split(",")) if text else ()


def _signed(sign, coeff) -> Fraction:
    value = Fraction(coeff) if coeff else Fraction(1)
    return -value if sign == "-" else value


def read_element(text: str, fmt: str):
    """(basis, [(comp, coeff)]) from the CLI's text or JSON element output."""
    if fmt == "json":
        data = json.loads(text)
        return data["basis"], [(tuple(t["comp"]), Fraction(t["coeff"])) for t in data["terms"]]
    text = text.strip()
    if text.startswith("0*"):
        return text[2:].split("[")[0], []
    basis, terms, pos = None, [], 0
    while pos < len(text):
        m = _TERM_RE.match(text, pos)
        if not m:
            raise ValueError(f"unreadable element output {text!r}")
        sign, coeff, basis, parts = m.groups()
        terms.append((_parts(parts), _signed(sign, coeff)))
        pos = m.end()
    return basis, terms


def read_tensor(text: str, fmt: str):
    if fmt == "json":
        data = json.loads(text)
        return tuple(data["basis"]), [
            ((tuple(t["comp_left"]), tuple(t["comp_right"])), Fraction(t["coeff"]))
            for t in data["terms"]
        ]
    text = text.strip()
    if text == "0":
        return ("M", "M"), []
    bases, terms, pos = None, [], 0
    while pos < len(text):
        m = _TENSOR_RE.match(text, pos)
        if not m:
            raise ValueError(f"unreadable tensor output {text!r}")
        sign, coeff, lb, cl, rb, cr = m.groups()
        bases = (lb, rb)
        terms.append(((_parts(cl), _parts(cr)), _signed(sign, coeff)))
        pos = m.end()
    return bases, terms


def read_poly(text: str, fmt: str):
    """[(monomial, coeff)] from the CLI's polynomial output."""
    if fmt == "json":
        data = json.loads(text)
        return [(tuple(tuple(p) for p in t["exps"]), Fraction(t["coeff"])) for t in data["terms"]]
    text = text.strip()
    if text == "0":
        return []
    pieces = re.split(r" ([+-]) ", text)
    terms = []
    for sign, body in zip(["+"] + pieces[1::2], pieces[0::2]):
        negative = (sign == "-") != body.startswith("-")
        coeff, mono = Fraction(1), []
        for factor in body.lstrip("-").split("*"):
            if factor.startswith("x"):
                var, _, exp = factor[1:].partition("^")
                mono.append((int(var), int(exp) if exp else 1))
            else:
                coeff = Fraction(factor)
        terms.append((tuple(mono), -coeff if negative else coeff))
    return terms


def format_element(basis: str, terms) -> str:
    pieces = []
    for comp, coeff in terms:
        sign = "-" if coeff < 0 else "+"
        pieces.append(f"{sign} {abs(coeff)}*{basis}[{','.join(map(str, comp))}]")
    text = " ".join(pieces)
    return text[2:] if text.startswith("+ ") else text


def _cli_element(rng, basis: str, degree: int) -> tuple[str, list]:
    lengths = [fit_length(basis, degree, rng.randint(1, degree)) for _ in range(rng.randint(1, 3))]
    terms = sparse_terms(rng, basis, degree, lengths)
    return format_element(basis, terms), terms


def _write_posets(rng, workdir: str, count: int, full: bool) -> list:
    posets = []
    for i in range(count):
        n = rng.randint(2, 4 if full else 3)
        relations = [
            (a, b) for a in range(1, n + 1) for b in range(a + 1, n + 1) if rng.random() < 0.4
        ]
        perm = rng.sample(range(1, n + 1), n)
        covers = [(perm[a - 1], perm[b - 1]) for a, b in relations]
        weights = [rng.randint(1, 2) for _ in range(n)]
        path = os.path.join(workdir, f"poset{i}.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"n": n, "covers": covers, "weights": weights}, handle)
        posets.append((path, n, covers, weights))
    return posets


def _alphabet(zset: str, nvars: int) -> tuple:
    if zset == "P":
        return tuple(range(1, nvars + 1))
    return tuple(z for i in range(1, nvars + 1) for z in (-i, i))


def cli_session(q, seed: int, size: str, workdir: str) -> list[Op]:
    cli = q.cli
    full = size == "full"
    rng = random.Random(f"cli-session/{seed}")
    checks = random.Random(f"cli-session/{seed}/points")
    posets = _write_posets(rng, workdir, 8, full)
    top = 6 if full else 3
    ops: list[Op] = []

    def add(verb, argv, fmt, verdict):
        argv = argv + (["--format", "json"] if fmt == "json" else [])

        def run(argv=argv):
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = cli.main(argv)
            return code, out.getvalue()

        ops.append(
            Op(verb, run,
               lambda r, v=verdict: r[0] == 0 and v(r[1]),
               lambda r: sha(f"{r[0]}\n{r[1]}"))
        )

    for i in range(1000 if full else 32):
        template = i % 16
        fmt = "json" if i % 2 else "text"
        basis = ("M", "L", "eta", "K")[(i // 16) % 4]
        degree = rng.randint(1, top)
        if template < 2:
            text, terms = _cli_element(rng, basis, degree)
            target = rng.choice([b for b in ("M", "L", "eta") if b != basis])
            xs = _point(checks, degree)
            want = ev.element_value(basis, terms, xs)
            add("convert", ["convert", text, "--to", target], fmt,
                lambda out, xs=xs, want=want, t=target, f=fmt: _elem_ok(out, f, xs, want, t))
        elif template < 4:
            da = rng.randint(1, top // 2)
            db = rng.randint(1, top // 2)
            ta, terms_a = _cli_element(rng, basis, da)
            tb, terms_b = _cli_element(rng, basis, db)
            xs = _point(checks, da + db)
            want = ev.element_value(basis, terms_a, xs) * ev.element_value(basis, terms_b, xs) % ev.PRIME
            argv = ["multiply", ta, tb]
            if template == 3 and basis != "K":
                argv += ["--basis", rng.choice(("M", "eta"))]
            if rng.random() < 0.3:
                argv += ["--to", rng.choice(("M", "eta"))]
            add("multiply", argv, fmt,
                lambda out, xs=xs, want=want, f=fmt: _elem_ok(out, f, xs, want, None))
        elif template < 6:
            text, terms = _cli_element(rng, basis, degree)
            xs, ys = _point(checks, degree), _point(checks, degree)
            want = ev.element_value(basis, terms, xs + ys)
            add("coproduct", ["coproduct", text], fmt,
                lambda out, xs=xs, ys=ys, want=want, f=fmt: _tensor_ok(out, f, xs, ys, want))
        elif template < 8:
            text, terms = _cli_element(rng, basis, degree)
            xs = _point(checks, degree)
            want = ev.element_value(basis, terms, xs, ev.antipode_value)
            argv = ["antipode", text]
            if rng.random() < 0.3:
                argv += ["--to", rng.choice(("M", "L", "eta"))]
            add("antipode", argv, fmt,
                lambda out, xs=xs, want=want, f=fmt: _elem_ok(out, f, xs, want, None))
        elif template < 10:
            text, terms = _cli_element(rng, basis, min(degree, 5))
            nvars = rng.randint(1, min(degree, 5) + 1)
            xs = _point(checks, nvars)
            want = ev.element_value(basis, terms, xs)
            add("expand", ["expand", text, "--nvars", str(nvars)], fmt,
                lambda out, xs=xs, want=want, f=fmt: _poly_ok(out, f, xs, want))
        elif template < 12:
            path, n, covers, weights = posets[rng.randrange(len(posets))]
            zset = "Ppm" if template == 10 else "P"
            nvars = rng.randint(1, 3)
            alphabet = _alphabet(zset, nvars)
            xs = _point(checks, nvars)
            want = ev.poset_value(n, covers, weights, alphabet, xs)
            add("gamma", ["gamma", "--poset", path, "--zset", zset, "--nvars", str(nvars)], fmt,
                lambda out, xs=xs, want=want, f=fmt: _poly_ok(out, f, xs, want))
        else:
            length = rng.randint(1, min(degree, 4))
            pi = tuple(rng.sample(range(1, length + 1), length))
            alpha = composition(rng, max(degree, length), length)
            weights = [0] * length
            for label, w in zip(pi, alpha):
                weights[label - 1] = w
            argv = ["u-function", " ".join(map(str, pi)), ",".join(map(str, alpha))]
            if template < 14:
                k = sum(alpha)
                xs = _point(checks, k)
                want = ev.chain_value(pi, weights, _alphabet("Ppm", k), xs)
                add("u-function", argv, fmt,
                    lambda out, xs=xs, want=want, f=fmt: _elem_ok(out, f, xs, want, "eta"))
            else:
                zset = "Ppm" if template == 14 else "P"
                nvars = rng.randint(1, 3)
                xs = _point(checks, nvars)
                want = ev.chain_value(pi, weights, _alphabet(zset, nvars), xs)
                add("u-function", argv + ["--zset", zset, "--nvars", str(nvars)], fmt,
                    lambda out, xs=xs, want=want, f=fmt: _poly_ok(out, f, xs, want))
    return ops


def _elem_ok(out, fmt, xs, want, basis) -> bool:
    got_basis, terms = read_element(out, fmt)
    if basis is not None and got_basis != basis:
        return False
    return ev.element_value(got_basis, terms, xs) == want


def _tensor_ok(out, fmt, xs, ys, want) -> bool:
    bases, terms = read_tensor(out, fmt)
    return ev.tensor_value(bases, terms, xs, ys) == want


def _poly_ok(out, fmt, xs, want) -> bool:
    return ev.poly_value(read_poly(out, fmt), xs) == want


# ---------------------------------------------------------------------------
# verify: the whole suite through the CLI, one operation per check


_VERIFY_LINE = re.compile(r"^(PASS|FAIL)  .*?: (\d+) ")


def verify_ops(stdout: str, code: int) -> list[tuple[bool, str]]:
    """Per check: passed with this commit's case count, and its report line."""
    lines = [ln for ln in stdout.splitlines() if _VERIFY_LINE.match(ln)]
    out = []
    for i, want in enumerate(VERIFY_CASES):
        line = lines[i] if i < len(lines) else ""
        m = _VERIFY_LINE.match(line)
        ok = code == 0 and m is not None and m.group(1) == "PASS" and int(m.group(2)) == want
        out.append((ok, line))
    return out
