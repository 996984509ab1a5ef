"""The four workloads of the benchmark.

Each workload turns a seed into a fixed job: a list of public calls into
the package.  Every call has a check against a reference from ``refs``
(which never uses the package) and a traced form, which makes the calls a
composite makes, inside spans, and must return the same output.
``tiny=True`` shrinks every job to a size the benchmark's tests run in
seconds; the full sizes are the ones ``BENCHMARK.json`` measures.
"""

from __future__ import annotations

import json
import operator
import os
import random
import re
import subprocess
import sys
from collections import Counter
from contextlib import redirect_stdout
from dataclasses import dataclass, field
from fractions import Fraction
from io import StringIO
from math import factorial
from pathlib import Path
from typing import Callable, Optional

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

import banachalg as ba  # noqa: E402
from banachalg import cli as ba_cli  # noqa: E402
from banachalg import ideal as ba_ideal  # noqa: E402

import refs  # noqa: E402

# certificate size: one call must be short enough that a run holds the
# 40 calls its op_tail_ms percentile needs (see run.py)
CERT_N = 10
CERT_N_TINY = 4


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return env


@dataclass
class Op:
    """One public call: ``call(*args)`` untraced, ``traced(tracer, *args)``
    traced.  ``text`` renders the output outside the timed region and
    ``check`` judges that text against a reference."""

    kind: str
    call: Callable
    args: tuple
    text: Callable
    check: Callable
    traced: Optional[Callable] = None

    def run_traced(self, tr):
        if self.traced is None:
            return tr.call(self.kind, self.call, *self.args)
        return self.traced(tr, *self.args)


@dataclass
class Workload:
    ops: list
    tail_q: float  # the fixed percentile reported as op_tail_ms
    monomials: list = field(default_factory=list)  # operands for the micro-timings
    term_lists: list = field(default_factory=list)  # inputs for from_terms timings
    once_checks: Callable = lambda: []  # extra checks made once per run
    probe: Optional[Callable] = None  # extra traced calls after each traced pass


def to_package(p) -> "ba.Polynomial":
    return ba.parse(refs.render(p))


def rel_text(out) -> str:
    return "None" if out is None else str(out)


def json_text(out) -> str:
    return json.dumps(out.to_json(), sort_keys=True)


# ---------------------------------------------------------------------------
# traced forms shared by several workloads
# ---------------------------------------------------------------------------


def traced_normal_form(tr, p):
    result, trace = tr.call("ideal.normal_form", ba_ideal.normal_form, p)
    families = Counter(
        "F0" if s.generator.kind == "F" and s.generator.a == 0 else s.generator.kind
        for s in trace.steps
    )
    tr.count("ideal.normal_form.steps", len(trace.steps))
    for fam, n in families.items():
        tr.count(f"ideal.normal_form.steps_{fam}", n)
    tr.count("nf.terms_in", len(p.terms))
    tr.count("nf.terms_out", len(result.terms))
    return result


def traced_project(tr, p):
    with tr.span("quotient.project"):
        return ba.RElement(traced_normal_form(tr, p))


def replay_checks(polys) -> list[bool]:
    """``trace.replay(p) == result`` for each input."""
    out = []
    for p in polys:
        result, trace = ba_ideal.normal_form(p)
        out.append(trace.replay(p) == result)
    return out


# ---------------------------------------------------------------------------
# certificate
# ---------------------------------------------------------------------------

_PHASES = (
    "S(F_{k+1},F_{l+1}) = G_{k,l}",
    "S(G_{k,l},F_{l+1}) = (l+1)*y*w_l * F_{k+1}",
    "rem(S(G_{k,l},F_k), F_{k+1}) = y*G_{k-1,l}",
    "nf(S(p,q)) = 0",
)


def cert_text(out) -> str:
    identities = out if isinstance(out, list) else out.to_json()["identities"]
    return json.dumps(identities)


def check_certificate(n: int, text: str) -> bool:
    rows = json.loads(text)
    counts = Counter(r["identity"] for r in rows)
    return (
        tuple(counts[p] for p in _PHASES) == refs.identity_counts(n)
        and len(rows) == refs.PINNED_IDENTITIES.get(n, len(rows))
        and all(r["pass"] for r in rows)
        and all(r["rhs"] == "0" for r in rows if r["identity"] == _PHASES[3])
    )


def _noncoprime_pairs(n: int):
    fs = [ba.F(j) for j in range(1, n + 1)]
    gs = [ba.G(k, l) for k in range(0, n - 1) for l in range(k + 1, n)]
    for i, f1 in enumerate(fs):
        for f2 in fs[i + 1 :]:
            yield f1, f2
    for g in gs:
        yield g, ba.F(g.b + 1)
        if g.a >= 1:
            yield g, ba.F(g.a)
    for i, g1 in enumerate(gs):
        for g2 in gs[i + 1 :]:
            yield g1, g2


def _ids(gid) -> list[int]:
    return [gid.a] + ([gid.b] if gid.kind == "G" else [])


def traced_certificate(tr, n: int) -> list[dict]:
    """The certificate rebuilt phase by phase from generator, s_polynomial,
    reduce_by_single, normal_form and to_str over the same pairs."""
    gen, F, G, Mono, Poly = ba.generator, ba.F, ba.G, ba.Monomial, ba.Polynomial
    spoly = ba.s_polynomial
    rbs = ba_ideal.reduce_by_single
    to_str = ba.to_str
    rows: list[dict] = []

    def row(identity, indices, passed, lhs, rhs):
        rows.append(
            {"identity": identity, "indices": indices, "pass": passed,
             "lhs": lhs, "rhs": rhs}
        )

    kl = [(k, l) for k in range(0, n - 1) for l in range(k + 1, n)]
    with tr.span("ideal.cert.phase_i"):
        for k, l in kl:
            s = tr.call("ideal.s_polynomial", spoly, gen(F(k + 1)), gen(F(l + 1)))
            g = gen(G(k, l))
            row(_PHASES[0], [k, l], s == g,
                tr.call("poly.to_str", to_str, s), tr.call("poly.to_str", to_str, g))
    with tr.span("ideal.cert.phase_ii"):
        for k, l in kl:
            s = tr.call("ideal.s_polynomial", spoly, gen(G(k, l)), gen(F(l + 1)))
            q, r = tr.call("ideal.reduce_by_single", rbs, s, F(k + 1))
            expected = Poly.monomial(Mono.build(y=1, w={l: 1}), l + 1)
            row(_PHASES[1], [k, l], r.is_zero() and q == expected,
                f"quotient {tr.call('poly.to_str', to_str, q)}, "
                f"remainder {tr.call('poly.to_str', to_str, r)}",
                f"quotient {tr.call('poly.to_str', to_str, expected)}, remainder 0")
    with tr.span("ideal.cert.phase_iii"):
        for k, l in kl:
            if k == 0:
                continue
            s = tr.call("ideal.s_polynomial", spoly, gen(G(k, l)), gen(F(k)))
            _, r = tr.call("ideal.reduce_by_single", rbs, s, F(k + 1))
            expected = gen(G(k - 1, l)).mul_term(1, Mono.build(y=1))
            row(_PHASES[2], [k, l], r == expected,
                tr.call("poly.to_str", to_str, r),
                tr.call("poly.to_str", to_str, expected))
    with tr.span("ideal.cert.phase_iv"):
        for p_id, q_id in _noncoprime_pairs(n):
            s = tr.call("ideal.s_polynomial", spoly, gen(p_id), gen(q_id))
            result = traced_normal_form(tr, s)
            row(_PHASES[3], _ids(p_id) + _ids(q_id), result.is_zero(),
                f"S({p_id},{q_id}) = {tr.call('poly.to_str', to_str, s)}", "0")
    tr.count("ideal.cert.identities", len(rows))
    return rows


def certificate(seed: int, tiny: bool = False) -> Workload:
    """The seed does not enter: the job is the certificate at a fixed size."""
    n = CERT_N_TINY if tiny else CERT_N
    op = Op("ideal.groebner_certificate", ba.groebner_certificate, (n,),
            cert_text, lambda text: check_certificate(n, text), traced_certificate)
    spolys = [
        ba.s_polynomial(ba.generator(p), ba.generator(q))
        for p, q in list(_noncoprime_pairs(n))[:400]
    ]
    terms = [[(t.coefficient, t.monomial) for t in s.terms] for s in spolys]
    return Workload(
        [op], tail_q=0.75,
        monomials=[m for ts in terms for _, m in ts],
        term_lists=terms,
        once_checks=lambda: replay_checks(spolys[:50]),
    )


# ---------------------------------------------------------------------------
# dense-nf
# ---------------------------------------------------------------------------

FAMILY_VARS = ("z", "x", "y", "w0", "w1", "w2", "w3", "w5", "w8")


def _seeded_shapes():
    """The variable sets of the seeded powers.  They are fixed, and the seed
    draws only the coefficients: with seed-drawn variable sets the median
    and tail call latency moved by a third from seed to seed."""
    rng = random.Random(12345)
    pool = ("z", "x", "y") + tuple(f"w{i}" for i in range(9))
    return [rng.sample(pool, 5 + i % 3) for i in range(38)]


SEEDED_SHAPES = _seeded_shapes()


def var(name: str):
    if name in ("z", "x", "y"):
        return refs.mono(**{name: 1})
    return refs.mono(w={int(name[1:]): 1})


def dense_power(coeffs: dict, k: int) -> dict:
    out = {refs.mono(): Fraction(1)}
    for _ in range(k):
        out = refs.poly_mul(out, coeffs)
    return out


def dense_inputs(seed: int, tiny: bool) -> list[dict]:
    """(z+x+y+w0+w1+w2+w3+w5+w8)^5, the same power with seeded coefficients
    c_v in 1..3, then smaller dense powers (sum of c_v * v)^d, again with
    seeded coefficients.  The family's ^6 (3.6 s a call) is left out: it
    held a run to three passes, too few for steady medians."""
    rng = random.Random(seed)
    k = 2 if tiny else 5
    out = [
        dense_power({var(v): Fraction(1) for v in FAMILY_VARS}, k),
        dense_power({var(v): Fraction(rng.randint(1, 3)) for v in FAMILY_VARS}, k),
    ]
    for i, names in enumerate(SEEDED_SHAPES[: 3 if tiny else None]):
        base = {var(v): Fraction(rng.randint(1, 3)) for v in names}
        out.append(dense_power(base, 2 if tiny else 3 + i % 2))
    return out


def dense_nf(seed: int, tiny: bool = False) -> Workload:
    inputs = dense_inputs(seed, tiny)
    polys = [to_package(p) for p in inputs]
    ops = [
        Op("ideal.nf", ba.nf, (P,), ba.to_str, refs.nf_check(p), traced_normal_form)
        for p, P in zip(inputs, polys)
    ]
    small = [P for P in polys[2:] if len(P.terms) <= 60][:6]
    return Workload(
        ops, tail_q=0.9,
        monomials=[t.monomial for P in polys[2:] for t in P.terms],
        term_lists=[[(t.coefficient, t.monomial) for t in P.terms] for P in polys],
        once_checks=lambda: replay_checks(small),
    )


# ---------------------------------------------------------------------------
# quotient-series
# ---------------------------------------------------------------------------


def corpus_poly(rng: random.Random, terms: int = 0, degree: int = 0) -> dict:
    """Degree <= 6, at most 8 terms, w-index <= 10, small rational
    coefficients; ``terms`` and ``degree`` fix the term count and the degree
    of every term instead of drawing them."""
    p: dict = {}
    for _ in range(terms or rng.randint(1, 8)):
        exps = [0] * 14  # z, x, y, w0..w10
        for _ in range(degree or rng.randint(1, 6)):
            exps[rng.randrange(14)] += 1
        m = refs.mono(exps[0], exps[1], exps[2], dict(enumerate(exps[3:])))
        c = Fraction(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 4))
        p[m] = p.get(m, 0) + c
    return {m: c for m, c in p.items() if c} or {refs.mono(y=1): Fraction(1)}


_X = {refs.mono(x=1): Fraction(1)}


def quotient_series(seed: int, tiny: bool = False) -> Workload:
    rng = random.Random(seed)
    scale = (lambda full, small: small) if tiny else (lambda full, small: full)
    # term counts cycle through 1..8 so that every seed gets the same mix
    corpus = [corpus_poly(rng, 1 + i % 8) for i in range(scale(450, 12))]
    polys = [to_package(p) for p in corpus]
    elems = [ba.project(P) for P in polys]
    refs_nf = [refs.nf_ref(p) for p in corpus]
    ops: list[Op] = []

    def project_op(p, P):
        ops.append(Op("quotient.project", ba.project, (P,), rel_text,
                      refs.nf_check(p), traced_project))

    for i in range(scale(400, 4)):
        project_op(corpus[i], polys[i])

    def traced_equal(tr, P, Q):
        with tr.span("quotient.equal_mod_I"):
            return traced_normal_form(tr, P) == traced_normal_form(tr, Q)

    for i in range(scale(40, 2)):
        p = corpus[i]
        if i % 2:  # add a multiple of a generator: the classes agree
            m = refs.mono(rng.randint(0, 1), rng.randint(0, 1), rng.randint(0, 1),
                          {rng.randint(0, 10): 1})
            q = refs.poly_add(p, refs.poly_mul({m: Fraction(rng.randint(1, 5))},
                                               refs.generator_F(rng.randint(0, 10))))
        else:  # add a standard monomial: the classes differ
            q = refs.poly_add(p, {refs.mono(w={rng.randint(0, 10): 1}): Fraction(1)})
        ops.append(Op("quotient.equal_mod_I", ba.equal_mod_I, (polys[i], to_package(q)),
                      str, lambda text, want=str(bool(i % 2)): text == want,
                      traced_equal))

    pairs = [(rng.randrange(len(corpus)), rng.randrange(len(corpus)))
             for _ in range(scale(40, 2))]
    for i, j in pairs:
        want = refs.poly_add(refs_nf[i], refs_nf[j])
        ops.append(Op("quotient.r_add", ba.r_add, (elems[i], elems[j]), rel_text,
                      lambda text, want=want: refs.parse_output(text) == want))

    def traced_r_mul(tr, a, b):
        with tr.span("quotient.r_mul"):
            prod = tr.call("quotient.r_mul.product", operator.mul, a.poly, b.poly)
            with tr.span("quotient.r_mul.reduce"):
                return ba.RElement(traced_normal_form(tr, prod))

    # factors of four degree-6 terms: every product has degree 12 and the
    # same size, so the cost of this slice does not swing with the seed
    for _ in range(scale(30, 2)):
        a, b = corpus_poly(rng, 4, 6), corpus_poly(rng, 4, 6)
        ops.append(Op("quotient.r_mul", ba.r_mul,
                      (ba.project(to_package(a)), ba.project(to_package(b))), rel_text,
                      refs.nf_check(refs.poly_mul(refs.nf_ref(a), refs.nf_ref(b))),
                      traced_r_mul))

    def traced_divide(tr, g):
        out = tr.call("quotient.divide_by_x", ba.divide_by_x, g)
        if out is None:
            tr.count("quotient.divide_by_x.none")
        return out

    def divide_check(g_ref):
        def check(text):
            if text == "None":
                return False
            h = refs.parse_output(text)
            return (all(refs.is_standard(m) for m in h)
                    and refs.nf_ref(refs.poly_mul(_X, h)) == g_ref)
        return check

    for i in range(scale(24, 2)):
        xf = refs.poly_mul(_X, corpus[i])
        ops.append(Op("quotient.divide_by_x", ba.divide_by_x,
                      (ba.project(to_package(xf)),), rel_text,
                      divide_check(refs.nf_ref(xf)), traced_divide))
    for _ in range(scale(6, 1)):  # free of x and y: no quotient exists
        p = {refs.mono(w={rng.randint(0, 10): 1, rng.randint(0, 10): 1}): Fraction(1)}
        ops.append(Op("quotient.divide_by_x", ba.divide_by_x,
                      (ba.project(to_package(p)),), rel_text,
                      lambda text: text == "None", traced_divide))

    for i in range(scale(20, 2)):  # y*w_a*w_big, one big index in each 20+5i..24+5i
        big = 20 + 5 * i + rng.randrange(5)
        p = {refs.mono(y=1, w={rng.randint(0, 2): 1, big: 1}): Fraction(1)}
        project_op(p, to_package(p))

    # the sizes of the series and disc calls are fixed; they are the
    # heaviest calls and set op_tail_ms
    for order in (5,) if tiny else (20, 40, 60):
        bound = Fraction(rng.choice([2, 3, 5]))
        f = ba.solve_equation(order)

        def series_check(text, order=order):
            rows = json.loads(text)
            return len(rows) == order + 1 and all(
                refs.parse_output(r["coeff"]) == refs.series_coefficient(r["k"])
                for r in rows
            )

        ops.append(Op("series.solve_equation", ba.solve_equation, (order,),
                      json_text, series_check))
        ops.append(Op("series.residual", ba.residual, (f,),
                      json_text,
                      lambda text: all(r["coeff"] == "0" for r in json.loads(text))))
        want = refs.divergence_index(bound, order)
        ops.append(Op("series.divergence_certificate", ba.divergence_certificate,
                      (f, bound), json_text,
                      lambda text, want=want: json.loads(text)["k"] == want))

    for family, fn in ((1, ba.example1_residual), (2, ba.example2_residual)):
        for c in (2,) if tiny else (4, 8, 12, 16):
            ops.append(Op(f"disc.example{family}_residual", fn, (c,),
                          lambda out: f"{out[0]}|{out[1]}",
                          lambda text, f=family, c=c: _disc_check(f, c, text)))

    rng.shuffle(ops)
    return Workload(
        ops, tail_q=0.99,
        monomials=[t.monomial for P in polys for t in P.terms],
        term_lists=[[(t.coefficient, t.monomial) for t in P.terms] for P in polys],
        once_checks=lambda: replay_checks(polys[:40]),
    )


def _disc_check(family: int, c: int, text: str) -> bool:
    order, lead = text.split("|")
    return refs.disc_order_ok(family, c, None if order == "None" else int(order)) \
        and lead != "0"


# ---------------------------------------------------------------------------
# cli
# ---------------------------------------------------------------------------


def run_cli(argv: list[str]) -> tuple[int, str]:
    proc = subprocess.run(
        [sys.executable, "-m", "banachalg", *argv],
        env=child_env(), cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    return proc.returncode, proc.stdout


def cli_text(out) -> str:
    code, stdout = out
    return f"{code}\n{stdout}"


def _cli_check(check_stdout):
    def check(text):
        code, _, stdout = text.partition("\n")
        try:
            return code == "0" and bool(check_stdout(stdout))
        except (ValueError, KeyError, IndexError, TypeError):
            return False
    return check


_ARTIN_LINE = re.compile(r"c=\s*(\d+)\s+order (\S+) >=")


def _artin_text(family):
    def check(out):
        rows = [_ARTIN_LINE.match(line) for line in out.splitlines()[:-1]]
        return len(rows) == 6 and all(
            r and refs.disc_order_ok(family, int(r[1]), int(r[2])) for r in rows
        )
    return check


def _artin_json(family):
    def check(d):
        return len(d["results"]) == 6 and all(
            refs.disc_order_ok(family, r["c"], r["order"]) for r in d["results"]
        )
    return check


def cli_script(tiny: bool) -> list[tuple[list[str], Callable]]:
    """(argv, check of stdout) for every subcommand in text and --json."""
    nf_in = "z^2*w1 + 3*x*w2*w4"
    nf_ref = refs.nf_ref(refs.parse_output(nf_in))
    norm_in = "(1/2)*y*w1^2 - (1/3)*z"
    norm_ref = refs.l1(refs.parse_output(norm_in))
    div_in = "y*w0*w1 + 2*x*w0"
    div_ref = refs.nf_ref(refs.parse_output(div_in))
    cert_total = sum(refs.identity_counts(4))

    def divided(text):
        return refs.nf_ref(refs.poly_mul(_X, refs.parse_output(text))) == div_ref

    def series_rows(d):
        return d["residual_zero"] and d["certificate"]["k"] == 7 and all(
            refs.parse_output(r["coeff"]) == refs.series_coefficient(r["k"])
            for r in d["coefficients"]
        ) and len(d["coefficients"]) == 9

    def series_lines(out):
        lines = out.splitlines()
        return all(
            refs.parse_output(lines[k].split(" = ", 1)[1].split("  (")[0])
            == refs.series_coefficient(k)
            for k in range(9)
        ) and "residual identically zero through t^8: True" in lines \
            and lines[-1].endswith("first at k = 7")

    def remark_lines(out):
        return [line.split(" = ")[1] for line in out.splitlines()] == [
            str(2 ** factorial(k)) for k in range(5)
        ]

    both = [
        (["nf", nf_in], lambda o: refs.parse_output(o) == nf_ref,
         lambda d: refs.parse_output(d["normal_form"]) == nf_ref),
        (["norm", norm_in], lambda o: Fraction(o.strip()) == norm_ref,
         lambda d: Fraction(d["l1_norm"]) == norm_ref),
        (["spoly", "F2", "F3"],
         lambda o: refs.parse_output(o) == refs.generator_G(1, 2),
         lambda d: refs.parse_output(d["s_polynomial"]) == refs.generator_G(1, 2)),
        (["groebner-verify", "--max-index", "4"],
         lambda o: o.strip() == f"groebner certificate (w-indices <= 4): "
                                f"{cert_total}/{cert_total} identities hold",
         lambda d: d["summary"]["checked"] == cert_total and d["summary"]["all_passed"]),
        (["divide-x", div_in], divided, lambda d: divided(d["result"])),
        (["solve-series", "--order", "8", "--bound", "3"], series_lines, series_rows),
        (["strong-artin", "--example", "1", "--c-max", "5"], _artin_text(1), _artin_json(1)),
        (["strong-artin", "--example", "2", "--c-max", "5"], _artin_text(2), _artin_json(2)),
        (["remark", "--k-max", "4"], remark_lines,
         lambda d: [r["norm"] for r in d["table"]] == [str(2 ** factorial(k)) for k in range(5)]),
    ]
    script = [(["--version"], lambda o: o.split()[0] == "banachalg")]
    for argv, text_check, json_check in both[: 1 if tiny else None]:
        script.append((argv, text_check))
        script.append((["--json", *argv], lambda o, c=json_check: c(json.loads(o))))
    return script


def cli_probe(script):
    """Each script entry through ``cli.main`` in this process, stdout
    captured; the output must equal the subprocess's."""
    def probe(tr, want_texts) -> list[bool]:
        ok = []
        for (argv, _), want in zip(script, want_texts):
            if argv == ["--version"]:
                continue  # argparse exits the process for --version
            buf = StringIO()
            with redirect_stdout(buf):
                code = tr.call("cli.main", ba_cli.main, argv)
            ok.append(cli_text((code, buf.getvalue())) == want)
        return ok
    return probe


def cli(seed: int, tiny: bool = False) -> Workload:
    """The seed does not enter: the script is fixed."""
    script = cli_script(tiny)
    ops = [
        Op("cli.subprocess", run_cli, (argv,), cli_text, _cli_check(check))
        for argv, check in script
    ]
    # the version number is not pinned: only the program name is checked
    ops[0] = Op("cli.version", run_cli, (["--version"],),
                lambda out: cli_text((out[0], out[1].split(" ")[0])), ops[0].check)
    exprs = [refs.parse_output(e) for e in
             ("z^2*w1 + 3*x*w2*w4", "(1/2)*y*w1^2 - (1/3)*z", "y*w0*w1 + 2*x*w0")]
    polys = [to_package(p) for p in exprs]
    return Workload(
        ops, tail_q=0.85,
        monomials=[t.monomial for P in polys for t in P.terms],
        term_lists=[[(t.coefficient, t.monomial) for t in P.terms] for P in polys],
        probe=cli_probe(script),
    )


BUILDERS = {
    "certificate": certificate,
    "dense-nf": dense_nf,
    "quotient-series": quotient_series,
    "cli": cli,
}
