#!/usr/bin/env python3
"""Benchmark of the banachalg package, run from the root of a checkout:

    python3 bench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

One closed-loop client in this interpreter runs the workload's fixed job
(see workloads.py) pass after pass until ``--seconds`` have elapsed and the
minimum sample counts are met.  The first pass warms the package's caches
and is checked but not timed into the metrics.  Every output is checked
against references that do not use the package (refs.py).

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` alternates
untraced and traced passes and reports the per-layer metrics and the
tracing overhead.  The last line of stdout is the result as one JSON
object; the same object, with details, goes to .bench_out/.
"""

from __future__ import annotations

import argparse
import json
import math
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import refs
import tracing

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

SETUP_REPEATS = 11
MIN_PASSES = 3  # timed passes, so that wall_s is a median of at least three
MIN_TRACED_PASSES = 2
DEFAULT_SEED = 0


def min_samples(q: float) -> int:
    """Fewest latencies for which at least ten lie above the q-quantile."""
    n = 11
    while n - math.ceil(q * n) < 10:
        n += 1
    return n


def quantile(values, q: float) -> float:
    """Nearest-rank quantile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def setup_times(workloads, n: int) -> list[float]:
    """Seconds from starting a fresh interpreter to the end of
    ``import banachalg``; perf_counter is the system-wide monotonic clock,
    so the child's reading is comparable with the parent's."""
    code = "import time, banachalg; print(time.perf_counter(), banachalg.__file__)"
    out = []
    for _ in range(n):
        t0 = perf_counter()
        proc = subprocess.run(
            [sys.executable, "-c", code], env=workloads.child_env(), cwd=ROOT,
            capture_output=True, text=True, timeout=120,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"import banachalg failed: {proc.stderr.strip()}")
        stamp, path = proc.stdout.split(maxsplit=1)
        if not Path(path.strip()).resolve().is_relative_to(SRC):
            raise RuntimeError(f"banachalg imported from {path.strip()}, not {SRC}")
        out.append(float(stamp) - t0)
    return out


class Runner:
    """Runs passes of one workload and counts checked operations."""

    def __init__(self, wl, digest: str | None):
        self.wl = wl
        self.digest = digest
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.reference_texts: list | None = None

    def fail(self, what: str):
        self.failed += 1
        if len(self.failures) < 10:
            self.failures.append(what)

    def run_pass(self, tr=None):
        """One pass; returns (wall seconds, per-call latencies, texts)."""
        lat, outs = [], []
        t_pass = perf_counter()
        for op in self.wl.ops:
            if tr is not None:
                tr.request += 1
            t0 = perf_counter()
            try:
                out = op.call(*op.args) if tr is None else op.run_traced(tr)
            except Exception as exc:  # a crash counts as a failed operation
                out = exc
            lat.append(perf_counter() - t0)
            outs.append(out)
        wall = perf_counter() - t_pass
        texts = []
        for op, out in zip(self.wl.ops, outs):
            self.attempted += 1
            if isinstance(out, Exception):
                self.fail(f"{op.kind}: {type(out).__name__}: {out}")
                texts.append(None)
                continue
            text = op.text(out)
            texts.append(text)
            if not op.check(text):
                self.fail(f"{op.kind}{op.args!r:.80}: output failed its check")
        if self.reference_texts is None:
            self.reference_texts = texts
            if self.digest is not None:
                self.attempted += 1
                if refs.digest(t or "" for t in texts) != self.digest:
                    self.fail("sha256 digest of the outputs differs from the pinned one")
        elif texts != self.reference_texts:
            self.fail("outputs differ from the first pass")
        return wall, lat, texts

    def count_checks(self, results, what: str):
        for ok in results:
            self.attempted += 1
            if not ok:
                self.fail(what)


def cache_counts(ba_ideal) -> dict:
    """(hits, misses) so far of the package's lru caches, (0, 0) if gone."""
    out = {}
    for name in ("divisor_generators", "generator"):
        info = getattr(getattr(ba_ideal, name, None), "cache_info", None)
        out[name] = (info().hits, info().misses) if info else (0, 0)
    return out


def first_pass(runner, ba_ideal) -> dict:
    """The untimed first pass; returns the cache lookups it made, which
    show how much one job reuses (later passes only hit)."""
    before = cache_counts(ba_ideal)
    runner.run_pass()
    after = cache_counts(ba_ideal)
    return {k: (after[k][0] - before[k][0], after[k][1] - before[k][1]) for k in after}


def micro_ns(fn, operands, repeats: int = 5) -> float:
    """Median over repeats of nanoseconds per call of fn over the operands."""
    times = []
    for _ in range(repeats):
        t0 = perf_counter()
        for a in operands:
            fn(*a)
        times.append(perf_counter() - t0)
    return statistics.median(times) / len(operands) * 1e9


def micro_metrics(ba, wl) -> dict:
    ms = wl.monomials[:4000]
    # exponents read back from the rendering, not from Monomial's fields
    exps = [next(iter(refs.parse_output(str(m)))) for m in ms]
    build = [(z, x, y, dict(w)) for z, x, y, w in exps]
    pairs = list(zip(ms, ms[1:] + ms[:1]))
    prods = [(a * b, a) for a, b in pairs]
    lists = wl.term_lists
    n_terms = sum(len(t) for t in lists)
    return {
        "poly.monomial_build.ns": micro_ns(
            lambda z, x, y, w: ba.Monomial.build(z, x, y, w), build),
        "poly.monomial_mul.ns": micro_ns(lambda a, b: a * b, pairs),
        "poly.monomial_div.ns": micro_ns(lambda a, b: a / b, prods),
        "poly.from_terms.ns": micro_ns(ba.Polynomial.from_terms, [(t,) for t in lists])
        * len(lists) / n_terms,
    }


def layer_metrics(totals, counts, caches, passes: int) -> dict:
    """Per-layer metrics per traced pass, cache metrics over the first pass;
    None where the data is absent."""

    def calls(name):
        return totals[name]["calls"] / passes if name in totals else None

    def self_s(name):
        return totals[name]["self_s"] / passes if name in totals else None

    def total_s(name):
        return totals[name]["total_s"] / passes if name in totals else None

    def per_pass(counter, gate):
        return counts.get(counter, 0) / passes if gate in totals else None

    def ratio(num, den):
        return num / den if num is not None and den else None

    nf_calls = "ideal.normal_form" in totals
    div_hits, div_misses = caches["divisor_generators"]
    gen_hits, gen_misses = caches["generator"]
    out = {
        "poly.to_str.self_s": self_s("poly.to_str"),
        "ideal.normal_form.calls": calls("ideal.normal_form"),
        "ideal.normal_form.self_s": self_s("ideal.normal_form"),
        "ideal.normal_form.steps": per_pass("ideal.normal_form.steps", "ideal.normal_form"),
        "ideal.normal_form.steps_F0": per_pass("ideal.normal_form.steps_F0", "ideal.normal_form"),
        "ideal.normal_form.steps_F": per_pass("ideal.normal_form.steps_F", "ideal.normal_form"),
        "ideal.normal_form.steps_G": per_pass("ideal.normal_form.steps_G", "ideal.normal_form"),
        "ideal.normal_form.steps_per_s": ratio(
            counts.get("ideal.normal_form.steps") if nf_calls else None,
            totals.get("ideal.normal_form", {}).get("total_s")),
        "ideal.s_polynomial.calls": calls("ideal.s_polynomial"),
        "ideal.s_polynomial.self_s": self_s("ideal.s_polynomial"),
        "ideal.reduce_by_single.calls": calls("ideal.reduce_by_single"),
        "ideal.reduce_by_single.self_s": self_s("ideal.reduce_by_single"),
        "ideal.cert.phase_i_s": total_s("ideal.cert.phase_i"),
        "ideal.cert.phase_ii_s": total_s("ideal.cert.phase_ii"),
        "ideal.cert.phase_iii_s": total_s("ideal.cert.phase_iii"),
        "ideal.cert.phase_iv_s": total_s("ideal.cert.phase_iv"),
        "ideal.cert.identities": per_pass("ideal.cert.identities", "ideal.cert.phase_i"),
        "ideal.divisor_generators.hit_ratio": ratio(div_hits, div_hits + div_misses),
        "ideal.divisor_generators.misses": div_misses if div_hits + div_misses else None,
        "ideal.generator.hit_ratio": ratio(gen_hits, gen_hits + gen_misses),
        "quotient.project.self_s": self_s("quotient.project"),
        "quotient.r_mul.product_s": total_s("quotient.r_mul.product"),
        "quotient.r_mul.reduce_s": total_s("quotient.r_mul.reduce"),
        "quotient.divide_by_x.self_s": self_s("quotient.divide_by_x"),
        "quotient.divide_by_x.none": per_pass("quotient.divide_by_x.none", "quotient.divide_by_x"),
        "quotient.nf_terms_out_per_in": ratio(
            counts.get("nf.terms_out") if "quotient.project" in totals else None,
            counts.get("nf.terms_in")),
        "series.solve_equation.self_s": self_s("series.solve_equation"),
        "series.residual.self_s": self_s("series.residual"),
        "series.divergence_certificate.self_s": self_s("series.divergence_certificate"),
        "disc.example1_residual.self_s": self_s("disc.example1_residual"),
        "disc.example2_residual.self_s": self_s("disc.example2_residual"),
    }
    version = totals.get("cli.version")
    main_s = total_s("cli.main")
    sub_s = total_s("cli.subprocess")
    out["cli.cold_start_s"] = version["total_s"] / version["calls"] if version else None
    out["cli.main_inprocess_s"] = main_s
    out["cli.startup_share"] = 1 - main_s / sub_s if main_s is not None and sub_s else None
    return out


def unit_of(name: str) -> str:
    if name.endswith(".ns"):
        return "ns"
    if name.endswith("per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith(("ratio", "share", "per_in")):
        return "1"
    return "count"


def traced_pass(runner, tr) -> float:
    """One traced pass, then the workload's probe if it has one; returns the
    pass's wall time."""
    wall = runner.run_pass(tr)[0]
    if runner.wl.probe is not None:
        runner.count_checks(runner.wl.probe(tr, runner.reference_texts),
                            "in-process cli.main output differs from the subprocess")
    return wall


def coverage_fill(metrics, runner, workload, seed, workloads, ba_ideal) -> list[str]:
    """Fill the layer metrics this workload does not exercise from one
    traced pass of each other workload at test size; returns their names."""
    missing = {k for k, v in metrics.items() if v is None}
    filled = sorted(missing)
    for name, build in workloads.BUILDERS.items():
        if name == workload or not missing:
            continue
        other = Runner(build(seed, True), None)
        caches = first_pass(other, ba_ideal)
        tr = tracing.Tracer("coverage")
        traced_pass(other, tr)
        runner.attempted += other.attempted
        runner.failed += other.failed
        runner.failures += [f"coverage {name}: {msg}" for msg in other.failures]
        got = layer_metrics(tracing.span_totals(tr), tr.counts, caches, 1)
        for k in list(missing):
            if got[k] is not None:
                metrics[k] = got[k]
                missing.discard(k)
    for k in missing:  # no workload reaches this layer any more
        metrics[k] = 0.0
    return filled


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("certificate", "dense-nf", "quotient-series", "cli"))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="shrink the job to test size (for the benchmark's tests)")
    args = ap.parse_args(argv)

    if not (SRC / "banachalg" / "__init__.py").is_file():
        print(f"error: package source not found under {SRC}", file=sys.stderr)
        return 2
    import workloads  # imports banachalg from SRC

    setup_times(workloads, 1)  # fails early if the package cannot be imported

    import banachalg as ba
    from banachalg import ideal as ba_ideal

    if not Path(ba.__file__).resolve().is_relative_to(SRC):
        print(f"error: banachalg imported from {ba.__file__}, not {SRC}", file=sys.stderr)
        return 2

    pinned = json.loads((BENCH / "digests.json").read_text())
    size = "tiny" if args.tiny else "full"
    seed_free = args.workload in ("certificate", "cli")
    digest = (pinned.get(args.workload, {}).get(size)
              if seed_free or args.seed == DEFAULT_SEED else None)

    wl = workloads.BUILDERS[args.workload](args.seed, args.tiny)
    runner = Runner(wl, digest)
    n_min = 1 if args.tiny else min_samples(wl.tail_q)
    min_passes = 1 if args.tiny else MIN_PASSES

    start = perf_counter()
    caches = first_pass(runner, ba_ideal)
    runner.count_checks(wl.once_checks(), "trace.replay(p) differs from the normal form")

    if args.trace == 0:
        walls, lats, setup = [], [], []
        n_setup = 3 if args.tiny else SETUP_REPEATS
        while True:
            wall, lat, _ = runner.run_pass()
            walls.append(wall)
            lats += lat
            if len(setup) < n_setup:  # spread over the run, like the passes
                setup += setup_times(workloads, 1)
            if (perf_counter() - start >= args.seconds and len(walls) >= min_passes
                    and len(lats) >= n_min):
                break
        setup += setup_times(workloads, n_setup - len(setup))
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        if args.workload == "cli":
            rss = max(rss, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
        values = {
            "setup_s": statistics.median(setup),
            "wall_s": statistics.median(walls),
            "op_p50_ms": statistics.median(lats) * 1e3,
            "op_tail_ms": quantile(lats, wl.tail_q) * 1e3,
            "peak_rss_mb": rss / 1024,
        }
        units = {"setup_s": "s", "wall_s": "s", "op_p50_ms": "ms",
                 "op_tail_ms": "ms", "peak_rss_mb": "MB"}
        details = {
            "op_tail_percentile": wl.tail_q * 100,
            "op_samples": len(lats),
            "op_samples_above_tail": len(lats) - math.ceil(wl.tail_q * len(lats)),
            "passes": len(walls),
            "pass_walls_s": walls,
            "setup_samples_s": setup,
        }
    else:
        tr = tracing.Tracer("traced")
        untraced, traced = [], []
        while True:
            untraced.append(runner.run_pass()[0])
            traced.append(traced_pass(runner, tr))
            if (perf_counter() - start >= args.seconds
                    and len(traced) >= (1 if args.tiny else MIN_TRACED_PASSES)):
                break
        values = layer_metrics(tracing.span_totals(tr), tr.counts, caches,
                               len(traced))
        filled = coverage_fill(values, runner, args.workload, args.seed, workloads,
                               ba_ideal)
        values.update(micro_metrics(ba, wl))
        values["trace.overhead_ratio"] = statistics.median(traced) / statistics.median(untraced)
        values["trace.traced_wall_s"] = statistics.median(traced)
        units = {k: unit_of(k) for k in values}
        details = {
            "traced_passes": len(traced),
            "untraced_wall_s": statistics.median(untraced),
            "spans": len(tr.names),
            "filled_from_coverage": filled,
        }
        OUT.mkdir(exist_ok=True)
        tr.dump(OUT / f"spans-{args.workload}-seed{args.seed}.json")

    line = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
    }
    report(args, line, details, runner)
    print(json.dumps(line))
    return 0


def report(args, line, details, runner):
    """Human-readable lines on stdout, failures on stderr, the record on disk."""
    for msg in runner.failures:
        print(f"FAILED {msg}", file=sys.stderr)
    for name, m in line["metrics"].items():
        print(f"{name:40s} {m['value']:.6g} {m['unit']}")
    print(f"fail_ratio: {line['failed']}/{line['attempted']}")
    for key, value in details.items():
        if not isinstance(value, list) or key == "filled_from_coverage":
            print(f"# {key}: {value}")
    OUT.mkdir(exist_ok=True)
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "tiny": args.tiny,
        "python": platform.python_version(), "machine": platform.machine(),
        "result": line, "details": details,
    }
    path = OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1))


if __name__ == "__main__":
    sys.exit(main())
