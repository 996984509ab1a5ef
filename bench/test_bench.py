"""Tests of the benchmark itself; run from the root of the repository with

    python3 -m pytest bench/test_bench.py
"""

from __future__ import annotations

import json
import random
import re
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import refs  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from workloads import ba  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def test_benchmark_json_schema():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert SPEC["paths"] == ["bench"]
    assert SPEC["command"][0] == "python3" and len(SPEC["command"]) <= 32
    assert isinstance(SPEC["run_seconds"], int) and 1 <= SPEC["run_seconds"] <= 60
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.BUILDERS)
    for w in SPEC["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200 and "\n" not in w["why"]
    names = [m["name"] for k in ("workloads", "end_to_end", "per_layer") for m in SPEC[k]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    for m in SPEC["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert UNIT.match(m["unit"]) and m["better"] in ("lower", "higher")
        assert 0 < m["bound"] <= 0.25
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])
    for m in SPEC["per_layer"]:
        assert set(m) == {"name", "unit", "better"} and UNIT.match(m["unit"])
        assert run.unit_of(m["name"]) == m["unit"]


def run_bench(*argv, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "bench/run.py", *argv], cwd=cwd,
        capture_output=True, text=True, timeout=300,
    )


def check_result(proc, workload, trace):
    assert proc.returncode == 0, proc.stderr
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0 and line["attempted"] >= 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: m["unit"] for k, m in line["metrics"].items()} == {
        m["name"]: m["unit"] for m in spec}
    for m in line["metrics"].values():
        assert set(m) == {"value", "unit"}
        assert isinstance(m["value"], (int, float)) and m["value"] == m["value"]
    record = json.loads(
        (ROOT / ".bench_out" / f"result-{workload}-seed3-trace{trace}.json").read_text())
    assert record["result"] == line and record["tiny"] is True


@pytest.mark.parametrize("workload", workloads.BUILDERS)
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke(workload, trace):
    proc = run_bench("--workload", workload, "--seed", "3", "--seconds", "0.2",
                     "--trace", str(trace), "--tiny")
    check_result(proc, workload, trace)


def test_default_seed_digests_hold():
    proc = run_bench("--workload", "quotient-series", "--seed", "0", "--seconds", "0.2",
                     "--tiny")
    assert proc.returncode == 0
    assert json.loads(proc.stdout.strip().splitlines()[-1])["failed"] == 0


def test_corrupted_output_counts_as_failure():
    wl = workloads.dense_nf(0, tiny=True)
    good = wl.ops[0].call
    wl.ops[0].call = lambda p: good(p) + ba.Polynomial.constant(1)

    def crash(p):
        raise workloads.ba_ideal.ReductionLimitError("no normal form")

    wl.ops[1].call = crash
    runner = run.Runner(wl, None)
    runner.run_pass()
    assert runner.attempted == len(wl.ops)
    assert runner.failed == 2


def test_wrong_digest_counts_as_failure():
    runner = run.Runner(workloads.certificate(0, tiny=True), "0" * 64)
    runner.run_pass()
    assert runner.failed == 1


def test_without_package_source_fails():
    bare = ROOT / ".bench_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH, bare / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        proc = run_bench("--workload", "cli", "--seed", "1", "--seconds", "1",
                         "--trace", "0", cwd=bare)
        assert proc.returncode != 0
        assert "{" not in proc.stdout
    finally:
        shutil.rmtree(bare)


def test_reference_normal_form_matches_package():
    rng = random.Random(7)
    for _ in range(300):
        p = workloads.corpus_poly(rng)
        assert refs.nf_check(p)(ba.to_str(ba.nf(workloads.to_package(p))))


def test_reference_parser_round_trips_package_rendering():
    rng = random.Random(8)
    for _ in range(100):
        p = workloads.corpus_poly(rng)
        assert refs.parse_output(ba.to_str(workloads.to_package(p))) == p


def test_identity_counts_match_pinned():
    for n, total in refs.PINNED_IDENTITIES.items():
        assert sum(refs.identity_counts(n)) == total


def test_divergence_index():
    assert refs.divergence_index(Fraction(10), 30) == 25
    assert refs.divergence_index(Fraction(3), 6) is None


def test_tail_quantile_has_ten_samples_above():
    for q in (0.75, 0.85, 0.9, 0.99):
        n = run.min_samples(q)
        values = list(range(n))
        above = sum(v > run.quantile(values, q) for v in values)
        assert above >= 10
