"""CLI behaviour: outputs, JSON schemas, exit codes, determinism."""

import hashlib
import json
import subprocess
import sys
from collections import Counter

import pytest

import banachalg.cli as cli
from banachalg.cli import main

from conftest import subprocess_env


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, "--json", *argv)
    return code, json.loads(out), err


# --- nf / norm / spoly / divide-x -------------------------------------------


def test_nf_text(capsys):
    code, out, _ = run(capsys, "nf", "z^2*w1")
    assert code == 0
    assert out.strip() == "y*w0^2"


def test_nf_already_standard(capsys):
    code, out, _ = run(capsys, "nf", "w7")
    assert code == 0
    assert out.strip() == "w7"


def test_nf_json(capsys):
    code, data, _ = run_json(capsys, "nf", "z^2*w1")
    assert code == 0
    assert data == {
        "command": "nf",
        "input": "z^2*w1",
        "normal_form": "y*w0^2",
        "steps": 2,
        "norm_bound": "1",
    }


def test_norm(capsys):
    code, out, _ = run(capsys, "norm", "(1/2)*y*w1^2 - (1/3)*z")
    assert code == 0
    assert out.strip() == "5/6"


def test_spoly(capsys):
    code, out, _ = run(capsys, "spoly", "F1", "F2")
    assert code == 0
    assert out.strip() == "2*y*w0*w2 - y*w1^2"


def test_spoly_bad_id(capsys):
    code, _, err = run(capsys, "spoly", "F1", "Q9")
    assert code == 2
    assert "cannot parse" in err


def test_spoly_reads_ids_beyond_the_int_str_digit_limit(capsys, int_str_limit):
    # the command line lifts the limit while it runs, so a 5000-digit index
    # parses and prints
    j = "1" * 5000
    code, out, err = run(capsys, "spoly", "F1", "F" + j)
    assert (code, err) == (0, "")
    assert out == f"{j}*y*w0*w{j} - y*w1*w{j[:-1]}0\n"
    assert sys.get_int_max_str_digits() == int_str_limit


@pytest.mark.parametrize("bad", ["G1,1", "G2,1", "F-1"])
def test_spoly_id_out_of_range(capsys, bad):
    # the id has the right shape, so the error names the range, not the syntax
    code, out, err = run(capsys, "spoly", bad, "F1")
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and err.startswith("error: ")
    assert "cannot parse" not in err
    assert "G requires 0 <= k < l" in err or "invalid F index" in err


def test_divide_x(capsys):
    code, out, _ = run(capsys, "divide-x", "z^2")
    assert code == 0 and out.strip() == "w0"
    code, out, _ = run(capsys, "divide-x", "y")
    assert code == 0 and out.strip() == "none"


def test_divide_x_json_input_is_the_expression(capsys):
    # the input as parsed, as nf prints it, not its normal form x*w0
    code, data, _ = run_json(capsys, "divide-x", "z^2")
    assert code == 0
    assert data == {"command": "divide-x", "input": "z^2", "result": "w0"}


def test_parse_error_exit_code(capsys):
    code, _, err = run(capsys, "nf", "x^")
    assert code == 2
    assert "position" in err


def test_nf_text_uses_the_closed_form(capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("normal_form called")

    monkeypatch.setattr("banachalg.ideal.normal_form", refuse)
    code, out, _ = run(capsys, "nf", "z^2*w1 + x*w0*w3")
    assert code == 0
    assert out == "(1/6)*y*w1^2 + y*w0^2\n"


def test_broken_rewrite_rule_exits_2(capsys, broken_f0):
    code, out, err = run(capsys, "--json", "nf", "z^2")
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1 and err.startswith("error: ")


# --- groebner-verify ---------------------------------------------------------


def test_groebner_verify_small(capsys):
    code, data, _ = run_json(capsys, "groebner-verify", "--max-index", "4")
    assert code == 0
    assert data["summary"]["all_passed"] is True
    assert data["summary"]["checked"] == data["summary"]["passed"]
    entry = data["identities"][0]
    assert set(entry) == {"identity", "indices", "pass", "lhs", "rhs"}


def test_groebner_verify_text(capsys):
    code, out, _ = run(capsys, "groebner-verify", "--max-index", "3")
    assert code == 0
    assert "identities hold" in out


def test_groebner_verify_builds_only_the_printed_form(capsys, monkeypatch):
    # the JSON rows of a large certificate cost more than printing the text
    def refuse(*args, **kwargs):
        raise AssertionError("unprinted form built")

    monkeypatch.setattr("banachalg.ideal.CertificateReport.to_json", refuse)
    code, out, _ = run(capsys, "groebner-verify", "--max-index", "3")
    assert code == 0 and out.endswith("identities hold\n")
    monkeypatch.undo()
    monkeypatch.setattr("banachalg.ideal.CertificateReport.to_text", refuse)
    code, data, _ = run_json(capsys, "groebner-verify", "--max-index", "3")
    assert code == 0 and data["summary"]["all_passed"]


# --- solve-series -------------------------------------------------------------


def test_solve_series_text(capsys):
    code, out, _ = run(capsys, "solve-series", "--order", "3", "--bound", "2")
    assert code == 0
    for needle in ("w0", "w1", "2*w2", "6*w3", "residual identically zero"):
        assert needle in out


def test_solve_series_json(capsys):
    code, data, _ = run_json(capsys, "solve-series", "--order", "4", "--bound", "2")
    assert code == 0
    assert data["residual_zero"] is True
    assert data["coefficients_match"] is True
    assert data["coefficients"][3] == {"k": 3, "coeff": "6*w3", "norm": "6"}
    assert data["certificate"]["reached"] is True
    assert data["certificate"]["k"] == 4


def test_solve_series_bound_not_reached(capsys):
    code, data, _ = run_json(capsys, "solve-series", "--order", "5", "--bound", "10")
    assert code == 0  # certificate shortfall is reported, not an error
    assert data["certificate"]["reached"] is False


def test_solve_series_invalid_order(capsys):
    code, _, err = run(capsys, "solve-series", "--order", "-3")
    assert code == 2


# --- strong-artin and remark --------------------------------------------------


def test_strong_artin_family1(capsys):
    code, data, _ = run_json(capsys, "strong-artin", "--example", "1", "--c-max", "6")
    assert code == 0
    assert data["all_pass"] is True
    first = data["results"][0]
    assert first == {"c": 0, "order": 1, "bound": 1, "pass": True, "leading": "-1"}
    second = data["results"][1]
    assert second["order"] == 2 and second["leading"] == "(1/4)*x"


def test_strong_artin_family2(capsys):
    code, data, _ = run_json(capsys, "strong-artin", "--example", "2", "--c-max", "5")
    assert code == 0
    assert all(r["order"] >= r["bound"] for r in data["results"])


# sha256 of strong-artin stdout at --c-max 30 as printed from the
# two-variable BRhoSeries product; the one-variable residual must match it
STRONG_ARTIN_DIGESTS = {
    ("--json", "1"): "7e4ac1a3b27b3b3723747a3306701560ac80a7e7cb0477c695af3b8386fffafa",
    ("--json", "2"): "3b24dc0f6aa674a3136c40579dbf577b3b5ef44fea9e8926b7a2cbde4006968d",
    ("text", "1"): "f50682a161547ad1dda6e383ad8c4d89856c2895f2cad23195504e7d2f96e136",
    ("text", "2"): "68cdffa65cc7f49580d9e93e1df9ac66e9d3779626330fa86712fc2d9dc8cd88",
}


@pytest.mark.parametrize("mode, example", sorted(STRONG_ARTIN_DIGESTS))
def test_strong_artin_stdout_is_pinned(capsys, mode, example):
    flags = ["--json"] if mode == "--json" else []
    code, out, _ = run(
        capsys, *flags, "strong-artin", "--example", example, "--c-max", "30"
    )
    assert code == 0
    digest = hashlib.sha256(out.encode()).hexdigest()
    assert digest == STRONG_ARTIN_DIGESTS[mode, example]


# sha256 of stdout, all runs of a command concatenated, as printed before
# nf and divide-x picked class monomials through the invariant I; the
# divide-x --json digest was re-pinned when its "input" field changed from
# the normal form of the input to the input itself (every "result" and
# every text line unchanged)
NF_INPUTS = [
    "y*w1^2", "x*w0*w3 + z^2*w1", "y*w0*w2000", "z^2*w1", "7", "0", "z*w3*w9",
    "x^3*w2*w5 - (1/3)*y^2*w0*w7", "z^5*w4 + x*y*w3^2", "x*y*z^3*w0*w1*w6",
    "y*w0*w3 - (2/5)*x*w1*w2 + z^2", "w7",
]
DIVIDE_INPUTS = [
    "z^2", "y*w0", "y", "x*w0 + w2", "y*w1^2", "x*y^2*w0^2", "z*y^3*w2*w3",
    "3*w0*w3 - w1*w2", "x*w0*w3 + z^2*w1", "0", "z", "(1/2)*x^2*z + y^2*w0*w5",
]
PINNED_RUNS = {
    "nf": [["nf", e] for e in NF_INPUTS],
    "divide-x": [["divide-x", e] for e in DIVIDE_INPUTS],
    "solve-series": [["solve-series", "--order", "12"]],
}
PINNED_DIGESTS = {
    ("text", "nf"): "4aa58bac577687e70375f56166dcf020f024c4410f2663e89f392947e2305d7c",
    ("text", "divide-x"): "b0e3ca20671bf8f869ee5785f13c78c5db6d0d0d7e9610941128d66389496b7a",
    ("text", "solve-series"): "d0a46902c8283fb524717f23bd8ba659c3e47e0698b0181522bf2fd95c07f48e",
    ("--json", "nf"): "2ad23611d19555cfb1df22c6ffaf2260fe40793974f70071b7703b1d0ee79e05",
    ("--json", "divide-x"): "2e60b547f4857ec35171ff77e76bd0214ef47278c1577847a38968249bb9083d",
    ("--json", "solve-series"): "9b79eec2ed28017a4b6e14f91e852ca3142fa3b7b9494403bffa41a395295cb3",
}


@pytest.mark.parametrize("mode, command", sorted(PINNED_DIGESTS))
def test_class_monomial_stdout_is_pinned(capsys, mode, command):
    flags = ["--json"] if mode == "--json" else []
    out = ""
    for argv in PINNED_RUNS[command]:
        code, chunk, _ = run(capsys, *flags, *argv)
        assert code == 0
        out += chunk
    digest = hashlib.sha256(out.encode()).hexdigest()
    assert digest == PINNED_DIGESTS[mode, command]


# sha256 of groebner-verify stdout as printed before the divisor order was
# written out and generator ids were interned
GROEBNER_VERIFY_DIGESTS = {
    ("text", "6"): "8cf8cc37fce9657ad1b6cb24da4097d6ff847f054e2ffa71ead5ebcf737e6d9f",
    ("--verbose", "6"): "e41aee07d8023e7404a901e8c1a24539cc01db9ef4b74d22200d1d2e857b33bf",
    ("--json", "6"): "eb28d4532852471c73d7eb50fd3229799790de1c1713b456961d22340d6fa6ed",
    ("text", "12"): "3d2a382e388a59c8406c97cf5157254640d75dc158882517e8a0c4adf4aa43cd",
    ("--verbose", "12"): "6cdac2ad7036b29e83adcba4aaa1f8f3915ff035164bb52ab58ecac71069815f",
    ("--json", "12"): "ee59edbfc7fdd6485d16c073fa8e22546a3b6dac5efdc7552da53d79915192e7",
    ("text", "25"): "12f039ee16eab960b3a3b2fc1c326a620f92bf7f4db35a3e684209e382bb779f",
    ("--verbose", "25"): "64d1de2ac1a1b4dba0a76ac41d02c0fb544b379afd621fab6dd08740c2c80c06",
    ("--json", "25"): "d2edd8aebf183f7a1ecc556be72819748efd7a391e38a8b53f3fc83ff7f5f9e2",
}


@pytest.mark.parametrize("mode, max_index", sorted(GROEBNER_VERIFY_DIGESTS))
def test_groebner_verify_stdout_is_pinned(capsys, mode, max_index):
    flags = ["--json"] if mode == "--json" else []
    verbose = ["--verbose"] if mode == "--verbose" else []
    code, out, _ = run(capsys, *flags, "groebner-verify", "--max-index", max_index, *verbose)
    assert code == 0
    digest = hashlib.sha256(out.encode()).hexdigest()
    assert digest == GROEBNER_VERIFY_DIGESTS[mode, max_index]


@pytest.mark.parametrize("verbose", [False, True], ids=["text", "verbose"])
def test_groebner_verify_formats_only_the_rows_it_prints(capsys, monkeypatch, verbose):
    # rows format their text when read: plain text mode prints no passing
    # row, so it formats none; --verbose prints, and so formats, every row
    import banachalg.ideal as ideal

    calls = {"to_str": 0, "_binomial_str": 0}
    reports = []
    certificate = ideal.groebner_certificate

    def spying(name):
        real = getattr(ideal, name)

        def spy(*args):
            calls[name] += 1
            return real(*args)

        return spy

    def keeping(max_index):
        reports.append(certificate(max_index))
        return reports[-1]

    for name in calls:
        monkeypatch.setattr(ideal, name, spying(name))
    monkeypatch.setattr(ideal, "groebner_certificate", keeping)
    code, out, _ = run(capsys, "groebner-verify", "--max-index", "8", *(["--verbose"] if verbose else []))
    assert code == 0
    (report,) = reports
    assert out.endswith(f"{len(report.checks)}/{len(report.checks)} identities hold\n")
    phases = Counter(c.identity for c in report.checks)
    phase_iv = phases.pop("nf(S(p,q)) = 0")
    # two texts per row of phases (i) and (iii), three in phase (ii)
    division = phases.pop("S(G_{k,l},F_{l+1}) = (l+1)*y*w_l * F_{k+1}")
    expected_to_str = 2 * sum(phases.values()) + 3 * division
    if verbose:
        assert calls == {"to_str": expected_to_str, "_binomial_str": phase_iv}
        assert all(c._render is None for c in report.checks)
    else:
        assert calls == {"to_str": 0, "_binomial_str": 0}
        assert all(c._render is not None for c in report.checks)


def test_remark(capsys):
    code, data, _ = run_json(capsys, "remark", "--k-max", "4")
    assert code == 0
    assert data["table"] == [
        {"k": 0, "norm": "2"},
        {"k": 1, "norm": "2"},
        {"k": 2, "norm": "4"},
        {"k": 3, "norm": "64"},
        {"k": 4, "norm": "16777216"},
    ]


def test_remark_guard(capsys):
    code, _, err = run(capsys, "remark", "--k-max", "9")
    assert code == 2


# --- determinism ---------------------------------------------------------------


@pytest.mark.parametrize(
    "argv",
    [
        ("nf", "z^2*w1 + x*w2 - y*w0*w4"),
        ("--json", "groebner-verify", "--max-index", "4"),
        ("--json", "solve-series", "--order", "6", "--bound", "3"),
        ("--json", "strong-artin", "--example", "1", "--c-max", "4"),
    ],
)
def test_byte_identical_reruns(capsys, argv):
    _, out1, _ = run(capsys, *argv)
    _, out2, _ = run(capsys, *argv)
    assert out1 == out2


# --- interrupt and closed stdout ------------------------------------------------


def test_interrupt_exits_130_quietly(capsys, monkeypatch):
    def interrupted(args):
        raise KeyboardInterrupt

    monkeypatch.setitem(cli.HANDLERS, "groebner-verify", interrupted)
    assert run(capsys, "groebner-verify", "--max-index", "40") == (130, "", "")


def test_closed_stdout_exits_141_quietly():
    env = subprocess_env()
    with subprocess.Popen(
        [sys.executable, "-m", "banachalg", "--json", "solve-series", "--order", "400"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env=env,
    ) as proc:
        proc.stdout.close()
        _, err = proc.communicate(timeout=60)
    assert proc.returncode == 141
    assert "Traceback" not in err
    assert "Exception ignored" not in err


# --- large w-indices ------------------------------------------------------------


def test_nf_prints_scalars_beyond_the_int_str_digit_limit():
    # the exact scalar 7500!*7501!/15001! has more than 4300 digits
    proc = subprocess.run(
        [sys.executable, "-m", "banachalg", "nf", "y*w0*w15001"],
        capture_output=True,
        text=True,
        env=subprocess_env(),
        timeout=120,
    )
    assert proc.returncode == 0
    assert proc.stderr == ""
    assert proc.stdout.rstrip("\n").endswith("*y*w7500*w7501")


@pytest.mark.parametrize("command", ["nf", "divide-x"])
def test_w_index_beyond_factorial_range_exits_2(capsys, command):
    # math.factorial takes at most a C long; the closed form names the index
    code, out, err = run(capsys, command, "y*w99999999999999999999")
    assert (code, out) == (2, "")
    assert err == "error: w-index 99999999999999999999 is too large for factorial\n"


def test_json_nf_refuses_a_w_index_beyond_factorial_range_before_rewriting(capsys, monkeypatch):
    # the rewriter's G chain from y*w0*wN takes about N/2 steps, so --json
    # must fail on the closed form before it counts them
    def refuse(*args, **kwargs):
        raise AssertionError("normal_form called")

    monkeypatch.setattr("banachalg.ideal.normal_form", refuse)
    code, out, err = run(capsys, "--json", "nf", "y*w0*w99999999999999999999")
    assert (code, out) == (2, "")
    assert err == "error: w-index 99999999999999999999 is too large for factorial\n"


@pytest.mark.skipif(
    not hasattr(sys, "set_int_max_str_digits"), reason="no int-to-str digit limit"
)
def test_main_restores_the_int_str_digit_limit(capsys):
    previous = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        code, out, _ = run(capsys, "nf", "y*w0*w15001")
        assert code == 0 and len(out) > 4300
        assert sys.get_int_max_str_digits() == 4300
    finally:
        sys.set_int_max_str_digits(previous)
