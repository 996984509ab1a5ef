#!/usr/bin/env python3
"""Time the rows of the ROADMAP baseline table once, with the benchmark's
checks, and write them with the machine and Python version:

    python3 bench/baseline.py [--out bench/BENCH_baseline.json]

Each row is the median of ``--repeats`` timings (one for the rows that take
more than a few seconds).  A row whose output fails its reference check is
recorded with ``"correct": false`` and makes the script exit with 1.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import statistics
import sys
from datetime import datetime, timezone
from pathlib import Path
from time import perf_counter

import refs
import workloads
from workloads import ba

BENCH = Path(__file__).resolve().parent


def timed(fn, repeats: int):
    times, out = [], None
    for _ in range(repeats):
        t0 = perf_counter()
        out = fn()
        times.append(perf_counter() - t0)
    return statistics.median(times), out


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def rows(repeats: int):
    for n in (10, 15, 20, 25):
        secs, report = timed(lambda: ba.groebner_certificate(n), 1 if n >= 20 else repeats)
        ok = workloads.check_certificate(n, workloads.cert_text(report))
        yield f"groebner_certificate({n})", secs, ok, {"identities": len(report.checks)}

    rng = random.Random(0)
    corpus = [workloads.corpus_poly(rng) for _ in range(1000)]
    polys = [workloads.to_package(p) for p in corpus]
    secs, outs = timed(lambda: [ba.nf(P) for P in polys], repeats)
    ok = all(refs.nf_check(p)(ba.to_str(o)) for p, o in zip(corpus, outs))
    yield "nf on 1000 corpus polynomials", secs, ok, {"seed": 0}

    family = {workloads.var(v): refs.Fraction(1) for v in workloads.FAMILY_VARS}
    dense = workloads.dense_power(family, 7)
    P = workloads.to_package(dense)
    secs, (out, trace) = timed(lambda: ba.normal_form(P), 1)
    yield ("nf of (z+x+y+w0+w1+w2+w3+w5+w8)^7", secs,
           refs.nf_check(dense)(ba.to_str(out)),
           {"terms_in": len(P.terms), "steps": len(trace.steps)})

    secs, (f, res) = timed(lambda: (lambda f: (f, ba.residual(f)))(ba.solve_equation(200)),
                           repeats)
    ok = all(refs.parse_output(str(c)) == refs.series_coefficient(k)
             for k, c in enumerate(f.coeffs)) and res.is_zero()
    yield "solve_equation(200) + residual", secs, ok, {}

    secs, (order, lead) = timed(lambda: ba.example1_residual(48), repeats)
    yield "example1_residual(48)", secs, refs.disc_order_ok(1, 48, order), {"order": order}

    secs, (code, stdout) = timed(lambda: workloads.run_cli(["nf", "z^2*w1"]), repeats)
    ok = code == 0 and refs.parse_output(stdout) == refs.nf_ref(refs.parse_output("z^2*w1"))
    yield 'CLI cold start: banachalg nf "z^2*w1"', secs, ok, {}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--out", default=str(BENCH / "BENCH_baseline.json"))
    ap.add_argument("--repeats", type=int, default=5)
    args = ap.parse_args(argv)
    table = []
    for name, secs, ok, extra in rows(args.repeats):
        print(f"{name:42s} {secs:9.4f} s  {'ok' if ok else 'WRONG'}", flush=True)
        table.append({"workload": name, "seconds": secs, "correct": ok, **extra})
    record = {
        "recorded": datetime.now(timezone.utc).strftime("%Y-%m-%d"),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "machine": platform.machine(),
        "cpu": cpu_model(),
        "cpus": os.cpu_count(),
        "repeats": args.repeats,
        "rows": table,
    }
    Path(args.out).write_text(json.dumps(record, indent=1) + "\n")
    return 0 if all(r["correct"] for r in table) else 1


if __name__ == "__main__":
    sys.exit(main())
