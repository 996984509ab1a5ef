"""Command line front end.

Every verification is a subcommand; output is plain text by default or JSON
with --json.  Exit codes: 0 all checked assertions hold, 1 a verification
failed, 2 usage or parse error, 130 (128 + SIGINT) interrupted by Ctrl-C,
141 (128 + SIGPIPE) the reader closed stdout before the output was written;
130 and 141 print nothing on stderr.  All numbers print as exact integers
or fractions p/q.

Each subcommand imports the modules it runs when it runs, so that a call
loads no more of the package than its subcommand needs; ``--version``
loads no module of it beyond this one.
"""

from __future__ import annotations

import argparse
import os
import sys
from collections.abc import Callable

from . import __version__

USAGE_ERROR, VERIFY_ERROR, INTERRUPTED, BROKEN_PIPE = 2, 1, 130, 141


def _parse_fraction(text: str):
    from fractions import Fraction

    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"not a rational number: {text!r}")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="banachalg",
        description="Exact computations in a binomial quotient of an "
        "l1-normed polynomial algebra, and disc-algebra residual checks.",
    )
    ap.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    ap.add_argument("--json", action="store_true", help="emit JSON instead of text")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("nf", help="normal form of a polynomial")
    p.add_argument("expr")

    p = sub.add_parser("norm", help="l1 norm of a polynomial")
    p.add_argument("expr")

    p = sub.add_parser("spoly", help="S-polynomial of two generators")
    p.add_argument("id1", help="F<j> or G<k>,<l>")
    p.add_argument("id2", help="F<j> or G<k>,<l>")

    p = sub.add_parser("groebner-verify", help="run the Gröbner basis certificate")
    p.add_argument("--max-index", type=int, default=10)
    p.add_argument("--verbose", action="store_true", help="list passing identities too")

    p = sub.add_parser("divide-x", help="divide a class by x, if possible")
    p.add_argument("expr")

    p = sub.add_parser("solve-series", help="solve (x - y*t) f = z^2 up to t^K")
    p.add_argument("--order", type=int, default=20)
    p.add_argument("--bound", type=_parse_fraction, default="10")  # a str default goes through type

    p = sub.add_parser("strong-artin", help="residual t-orders of the approximants")
    p.add_argument("--example", type=int, choices=(1, 2), default=1)
    p.add_argument("--c-max", type=int, default=12)

    p = sub.add_parser("remark", help="growth table 2^(k!) of coefficient norms")
    p.add_argument("--k-max", type=int, default=5)

    return ap


def _emit(
    as_json: bool,
    payload: Callable[[], dict],
    text_lines: Callable[[], list[str]],
):
    """Print the JSON payload or the text lines; only the printed form is
    built, since some (the certificate's rows) are large."""
    if as_json:
        import json

        print(json.dumps(payload(), indent=2))
    else:
        print("\n".join(text_lines()))


def cmd_nf(args) -> int:
    from .ideal import nf, normal_form
    from .poly import l1_norm, parse, to_str

    p = parse(args.expr)

    def payload() -> dict:
        # text prints the closed form; only the JSON step count needs the rewriter
        result, trace = normal_form(p)
        return {
            "command": "nf",
            "input": to_str(p),
            "normal_form": to_str(result),
            "steps": len(trace.steps),
            "norm_bound": str(l1_norm(result)),
        }

    _emit(args.json, payload, lambda: [to_str(nf(p))])
    return 0


def cmd_norm(args) -> int:
    from .poly import l1_norm, parse, to_str

    p = parse(args.expr)
    norm = str(l1_norm(p))
    _emit(
        args.json,
        lambda: {"command": "norm", "input": to_str(p), "l1_norm": norm},
        lambda: [norm],
    )
    return 0


def cmd_spoly(args) -> int:
    from .ideal import generator, parse_generator_id, s_polynomial
    from .poly import to_str

    g1 = parse_generator_id(args.id1)
    g2 = parse_generator_id(args.id2)
    s = to_str(s_polynomial(generator(g1), generator(g2)))
    _emit(
        args.json,
        lambda: {"command": "spoly", "f": str(g1), "g": str(g2), "s_polynomial": s},
        lambda: [s],
    )
    return 0


def cmd_groebner_verify(args) -> int:
    from .ideal import groebner_certificate

    report = groebner_certificate(args.max_index)
    _emit(
        args.json,
        lambda: {"command": "groebner-verify", **report.to_json()},
        lambda: [report.to_text(verbose=args.verbose)],
    )
    return 0 if report.all_passed else VERIFY_ERROR


def cmd_divide_x(args) -> int:
    from .poly import parse, to_str
    from .quotient import divide_by_x, project

    p = parse(args.expr)
    h = divide_by_x(project(p))
    result = None if h is None else str(h)
    _emit(
        args.json,
        lambda: {"command": "divide-x", "input": to_str(p), "result": result},
        lambda: ["none" if result is None else result],
    )
    return 0


def cmd_solve_series(args) -> int:
    if args.order < 0:
        raise argparse.ArgumentTypeError("--order must be nonnegative")
    from .series import divergence_certificate, expected_coefficient, residual, solve_equation

    f = solve_equation(args.order)
    res = residual(f)
    matches = all(
        f.coeffs[k] == expected_coefficient(k) for k in range(args.order + 1)
    )
    cert = divergence_certificate(f, args.bound)
    ok = matches and res.is_zero()

    def text_lines() -> list[str]:
        lines = [f"f_{k} = {c}  (norm {c.norm})" for k, c in enumerate(f.coeffs)]
        lines.append(
            f"residual identically zero through t^{args.order}: {res.is_zero()}"
        )
        lines.append(f"coefficients equal k!*wk for all k: {matches}")
        if cert.reached_at is None:
            lines.append(
                f"norm^(1/k) >= {cert.bound} not reached within truncation order "
                f"{args.order}"
            )
        else:
            lines.append(f"norm^(1/k) >= {cert.bound} first at k = {cert.reached_at}")
        return lines

    _emit(
        args.json,
        lambda: {
            "command": "solve-series",
            "order": args.order,
            "coefficients": f.to_json(),
            "residual_zero": res.is_zero(),
            "coefficients_match": matches,
            "certificate": cert.to_json(),
        },
        text_lines,
    )
    return 0 if ok else VERIFY_ERROR


def cmd_strong_artin(args) -> int:
    if args.c_max < 0:
        raise argparse.ArgumentTypeError("--c-max must be nonnegative")
    from .disc import example1_residual, example2_residual

    fn = example1_residual if args.example == 1 else example2_residual
    results = []
    all_ok = True
    for c in range(args.c_max + 1):
        order, lead = fn(c)
        bound = c + 1 if args.example == 1 else c
        ok = order is None or order >= bound
        all_ok = all_ok and ok
        results.append(
            {
                "c": c,
                "order": order,
                "bound": bound,
                "pass": ok,
                "leading": str(lead),
            }
        )

    def text_lines() -> list[str]:
        lines = [
            f"c={r['c']:2d}  order {r['order']} >= {r['bound']}: "
            f"{'ok' if r['pass'] else 'FAIL'}  leading {r['leading']}"
            for r in results
        ]
        lines.append(
            f"family {args.example}: residual order bound holds for all "
            f"c <= {args.c_max}: {all_ok}"
        )
        return lines

    _emit(
        args.json,
        lambda: {
            "command": "strong-artin",
            "example": args.example,
            "results": results,
            "all_pass": all_ok,
        },
        text_lines,
    )
    return 0 if all_ok else VERIFY_ERROR


def cmd_remark(args) -> int:
    from .disc import remark_growth

    table = remark_growth(args.k_max)
    _emit(
        args.json,
        lambda: {
            "command": "remark",
            "rho": "2",
            "table": [{"k": k, "norm": str(n)} for k, n in table],
        },
        lambda: [f"k={k}  ||x^(k!)||_2 = {n}" for k, n in table],
    )
    return 0


HANDLERS = {
    "nf": cmd_nf,
    "norm": cmd_norm,
    "spoly": cmd_spoly,
    "groebner-verify": cmd_groebner_verify,
    "divide-x": cmd_divide_x,
    "solve-series": cmd_solve_series,
    "strong-artin": cmd_strong_artin,
    "remark": cmd_remark,
}


def _ideal_errors() -> tuple:
    """``(ideal.ReductionLimitError,)`` once ``ideal`` is loaded, else ().
    Only ``ideal`` raises it, and catching it must not import ``ideal``."""
    ideal = sys.modules.get(f"{__package__}.ideal")
    return (ideal.ReductionLimitError,) if ideal else ()


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # exact scalars such as the one of nf(y*w0*w15001) exceed Python's
    # default limit on int-to-str digits (3.11+); lift it for the command
    # and put the caller's limit back afterwards
    set_limit = getattr(sys, "set_int_max_str_digits", None)
    if set_limit is not None:
        previous = sys.get_int_max_str_digits()
        set_limit(0)
    try:
        code = HANDLERS[args.command](args)
        sys.stdout.flush()
        return code
    except KeyboardInterrupt:
        return INTERRUPTED
    except BrokenPipeError:
        # the reader closed stdout early; point fd 1 at devnull so that the
        # interpreter's exit flush cannot raise again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return BROKEN_PIPE
    except (ValueError, argparse.ArgumentTypeError, *_ideal_errors()) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    finally:
        if set_limit is not None:
            set_limit(previous)


if __name__ == "__main__":
    sys.exit(main())
