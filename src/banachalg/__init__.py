"""Exact symbolic computation in an l1-normed polynomial algebra with
countably many indeterminates, its binomial quotient, and disc-algebra
residual checks.

The package verifies, in exact rational arithmetic:

  * that the binomial families F and G form a Gröbner basis, via
    S-polynomial identities and reductions to zero;
  * unique normal forms on standard monomials, with replayable traces and
    norm-nonincreasing reduction steps;
  * the recursive solution f_k = k! * w_k of (x - y*t) f(t) = z^2 over the
    quotient, together with an integer-arithmetic divergence certificate;
  * residual t-orders of square-root approximants over disc algebras.
"""

__version__ = "0.1.0"

# Each public name with the submodule that defines it.  The package imports
# no submodule up front: PEP 562's module ``__getattr__`` imports a name's
# home on its first lookup and binds the value here, so that a command of
# the command line loads only the modules it runs.
_EXPORTS = {
    "poly": (
        "Monomial", "ParseError", "Polynomial", "Term", "compare", "l1_norm", "parse", "to_str",
    ),
    "ideal": (
        "F", "G", "GeneratorId", "ReductionTrace", "generator", "groebner_certificate",
        "is_standard_monomial", "nf", "normal_form", "s_polynomial",
    ),
    "quotient": ("RElement", "divide_by_x", "equal_mod_I", "project", "r_add", "r_mul"),
    "series": ("TruncatedSeriesR", "divergence_certificate", "residual", "solve_equation"),
    "disc": (
        "BRhoElement", "BRhoSeries", "brho_norm",
        "example1_residual", "example1_solutions",
        "example2_residual", "example2_solutions",
        "remark_growth", "sqrt_coeffs",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = (*_EXPORTS, "cli")

__all__ = ["__version__", *_HOME]


def __getattr__(name: str):
    from importlib import import_module

    if name in _SUBMODULES:  # the import binds the submodule here as well
        return import_module(f"{__name__}.{name}")
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f"{__name__}.{_HOME[name]}"), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_SUBMODULES})
