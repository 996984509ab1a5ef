"""The package namespace, the import graph of each command, and the value
contract of the record classes."""

import copy
import importlib
import pickle
import subprocess
import sys
from fractions import Fraction

import pytest

import banachalg
from banachalg import (
    BRhoElement,
    BRhoSeries,
    F,
    G,
    GeneratorId,
    Polynomial,
    RElement,
    TruncatedSeriesR,
    divergence_certificate,
    groebner_certificate,
    normal_form,
    parse,
    project,
    solve_equation,
)
from banachalg.ideal import CertificateReport, IdentityCheck, ReductionStep, ReductionTrace
from banachalg.series import DivergenceCertificate

from conftest import subprocess_env

# --- the namespace ------------------------------------------------------------

HOMES = {
    "poly": "Monomial ParseError Polynomial Term compare l1_norm parse to_str",
    "ideal": "F G GeneratorId ReductionTrace generator groebner_certificate "
    "is_standard_monomial nf normal_form s_polynomial",
    "quotient": "RElement divide_by_x equal_mod_I project r_add r_mul",
    "series": "TruncatedSeriesR divergence_certificate residual solve_equation",
    "disc": "BRhoElement BRhoSeries brho_norm example1_residual example1_solutions "
    "example2_residual example2_solutions remark_growth sqrt_coeffs",
}


def test_all_lists_the_public_names_in_order():
    expected = ["__version__"] + [name for names in HOMES.values() for name in names.split()]
    assert banachalg.__all__ == expected
    assert len(expected) == 38


def test_removed_names_are_gone():
    for name in ("Variable", "W", "X", "Y", "Z", "leading_term"):
        with pytest.raises(AttributeError):
            getattr(banachalg, name)
    assert not {"Variable", "W", "X", "Y", "Z"} & set(vars(banachalg.poly))
    assert "leading_term" not in vars(banachalg.ideal)


def test_every_public_name_is_the_object_of_its_home_module():
    for module, names in HOMES.items():
        home = importlib.import_module(f"banachalg.{module}")
        for name in names.split():
            assert getattr(banachalg, name) is getattr(home, name), name
            assert name in vars(banachalg)  # bound on first use: no second lookup


def test_star_import_binds_exactly_all():
    namespace = {}
    exec("from banachalg import *", namespace)
    del namespace["__builtins__"]
    assert set(namespace) == set(banachalg.__all__)


def test_dir_lists_all_and_the_submodules():
    listed = dir(banachalg)
    assert set(banachalg.__all__) <= set(listed)
    assert {"poly", "ideal", "quotient", "series", "disc", "cli"} <= set(listed)
    assert listed == sorted(listed)


def test_unknown_attribute_raises_attribute_error_naming_it():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        banachalg.no_such_name
    with pytest.raises(ImportError):
        exec("from banachalg import no_such_name", {})


def _python(code: str, *options: str) -> subprocess.CompletedProcess:
    """``code`` run by a fresh interpreter, started with the command-line
    ``options``, that imports this checkout."""
    proc = subprocess.run(
        [sys.executable, *options, "-c", code],
        capture_output=True,
        text=True,
        env=subprocess_env(),
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc


def test_submodules_are_attributes_after_a_bare_import():
    out = _python(
        "import banachalg\n"
        "print(banachalg.ideal.nf(banachalg.poly.parse('z^2')))\n"
        "print(banachalg.quotient.__name__, banachalg.cli.__name__)\n"
        "print(banachalg.solve_equation(2).coeffs[2])\n"
    ).stdout
    assert out == "x*w0\nbanachalg.quotient banachalg.cli\n2*w2\n"


# --- the import graph of each command ---------------------------------------------


def _modules(body: str, *options: str) -> set[str]:
    """The modules loaded in a fresh interpreter after it runs ``body``."""
    code = f'{body}\nimport sys\nprint(" ".join(sorted(sys.modules)), file=sys.stderr)'
    return set(_python(code, *options).stderr.split())


def _command(argv: list[str]) -> str:
    """A body that runs the command line on ``argv`` as ``python -m`` would."""
    return (
        "from banachalg.cli import main\n"
        f"try:\n    main({argv!r})\nexcept SystemExit:\n    pass\n"
        "import sys\nsys.stdout.flush()"
    )


def _package(modules: set[str]) -> set[str]:
    return {m.removeprefix("banachalg.") for m in modules if m.startswith("banachalg.")}


COMMANDS = {
    "nf": ["nf", "z^2*w1 + 3*x*w2*w4"],
    "json-nf": ["--json", "nf", "z^2*w1"],
    "norm": ["norm", "(1/2)*y*w1^2 - (1/3)*z"],
    "spoly": ["spoly", "F2", "F3"],
    "groebner-verify": ["groebner-verify", "--max-index", "3"],
    "divide-x": ["divide-x", "y*w0*w1 + 2*x*w0"],
    "solve-series": ["--json", "solve-series", "--order", "4", "--bound", "3"],
    "strong-artin": ["strong-artin", "--c-max", "3"],
    "remark": ["remark", "--k-max", "3"],
    "parse-error": ["norm", "x^"],
}


@pytest.fixture(scope="module")
def loaded():
    """Per command, the modules it loads beyond a bare interpreter (a site
    ``.pth`` file may import modules before either starts)."""
    baseline = _modules("pass")
    bodies = {name: _command(argv) for name, argv in COMMANDS.items()}
    bodies["import"] = "import banachalg"
    bodies["--version"] = _command(["--version"])
    return {name: _modules(body) - baseline for name, body in bodies.items()}


def test_a_bare_import_loads_no_submodule(loaded):
    assert "banachalg" in loaded["import"]
    assert _package(loaded["import"]) == set()


def test_version_loads_only_the_command_line(loaded):
    assert _package(loaded["--version"]) == {"cli"}
    assert not {"typing", "fractions", "json"} & loaded["--version"]


def test_each_command_loads_only_the_modules_it_runs(loaded):
    assert _package(loaded["norm"]) == {"cli", "poly"}
    assert _package(loaded["parse-error"]) == {"cli", "poly"}
    assert _package(loaded["nf"]) == {"cli", "poly", "ideal"}
    assert _package(loaded["json-nf"]) == {"cli", "poly", "ideal"}
    assert _package(loaded["spoly"]) == {"cli", "poly", "ideal"}
    assert _package(loaded["groebner-verify"]) == {"cli", "poly", "ideal"}
    assert _package(loaded["divide-x"]) == {"cli", "poly", "ideal", "quotient"}
    assert _package(loaded["solve-series"]) == {"cli", "poly", "ideal", "quotient", "series"}
    assert _package(loaded["strong-artin"]) == {"cli", "poly", "disc"}
    assert _package(loaded["remark"]) == {"cli", "poly", "disc"}


def test_no_command_loads_dataclasses_or_random(loaded):
    for name, modules in loaded.items():
        assert not {"dataclasses", "random"} & modules, name
    assert "json" not in loaded["nf"] | loaded["norm"]


STEPS = {f"import-{m}": f"import banachalg.{m}" for m in (*HOMES, "cli")}
STEPS.update({name: _command(argv) for name, argv in COMMANDS.items()})
STEPS["--version"] = _command(["--version"])


@pytest.mark.parametrize("step", STEPS)
def test_no_module_or_command_loads_typing(step):
    # -S skips site, whose .pth files may import typing before the package
    # does; the subtraction of a bare interpreter's modules above cannot see
    # through that
    modules = _modules(STEPS[step], "-S")
    assert _package(modules)  # the step ran the package
    assert "typing" not in modules


# --- the records ------------------------------------------------------------------


def _samples():
    """(record, its repr as pinned when the classes were dataclasses)."""
    _, trace = normal_form(parse("z^2*w1"))
    series = solve_equation(1)
    e = BRhoElement.from_dict({0: 1, 2: Fraction(1, 2)}, 2)
    return [
        (
            parse("2*x*w2 - (1/3)*y"),
            "Polynomial(terms=(Term(coefficient=Fraction(2, 1), monomial=Monomial("
            "z_exp=0, x_exp=1, y_exp=0, w=((2, 1),))), Term(coefficient="
            "Fraction(-1, 3), monomial=Monomial(z_exp=0, x_exp=0, y_exp=1, w=()))))",
        ),
        (F(3), "GeneratorId(kind='F', a=3, b=-1)"),
        (G(1, 4), "GeneratorId(kind='G', a=1, b=4)"),
        (
            trace.steps[0],
            "ReductionStep(generator=GeneratorId(kind='F', a=0, b=-1), multiplier="
            "Monomial(z_exp=0, x_exp=0, y_exp=0, w=((1, 1),)), scalar=Fraction(-1, 1))",
        ),
        (
            trace,
            "ReductionTrace(steps=(ReductionStep(generator=GeneratorId(kind='F', a=0, "
            "b=-1), multiplier=Monomial(z_exp=0, x_exp=0, y_exp=0, w=((1, 1),)), "
            "scalar=Fraction(-1, 1)), ReductionStep(generator=GeneratorId(kind='F', "
            "a=1, b=-1), multiplier=Monomial(z_exp=0, x_exp=0, y_exp=0, w=((0, 1),)), "
            "scalar=Fraction(-1, 1))), result=Polynomial(terms=(Term(coefficient="
            "Fraction(1, 1), monomial=Monomial(z_exp=0, x_exp=0, y_exp=1, "
            "w=((0, 2),))),)))",
        ),
        (
            IdentityCheck("S", (1, 2), True, "a", "b"),
            "IdentityCheck(identity='S', indices=(1, 2), passed=True, lhs='a', rhs='b')",
        ),
        (
            groebner_certificate(2),
            "CertificateReport(max_index=2, checks=(IdentityCheck(identity="
            "'S(F_{k+1},F_{l+1}) = G_{k,l}', indices=(0, 1), passed=True, "
            "lhs='2*y*w0*w2 - y*w1^2', rhs='2*y*w0*w2 - y*w1^2'), IdentityCheck("
            "identity='S(G_{k,l},F_{l+1}) = (l+1)*y*w_l * F_{k+1}', indices=(0, 1), "
            "passed=True, lhs='quotient 2*y*w1, remainder 0', rhs='quotient 2*y*w1, "
            "remainder 0'), IdentityCheck(identity='nf(S(p,q)) = 0', indices=(1, 2), "
            "passed=True, lhs='S(F1,F2) = 2*y*w0*w2 - y*w1^2', rhs='0'), "
            "IdentityCheck(identity='nf(S(p,q)) = 0', indices=(0, 1, 2), passed=True, "
            "lhs='S(G0,1,F2) = -2*x*y*w1^2 + 2*y^2*w0*w1', rhs='0')))",
        ),
        (
            project(parse("z^2")),
            "RElement(poly=Polynomial(terms=(Term(coefficient=Fraction(1, 1), "
            "monomial=Monomial(z_exp=0, x_exp=1, y_exp=0, w=((0, 1),))),)))",
        ),
        (
            series,
            "TruncatedSeriesR(coeffs=(RElement(poly=Polynomial(terms=(Term("
            "coefficient=Fraction(1, 1), monomial=Monomial(z_exp=0, x_exp=0, y_exp=0, "
            "w=((0, 1),))),))), RElement(poly=Polynomial(terms=(Term(coefficient="
            "Fraction(1, 1), monomial=Monomial(z_exp=0, x_exp=0, y_exp=0, "
            "w=((1, 1),))),)))))",
        ),
        (
            divergence_certificate(series, 1),
            "DivergenceCertificate(bound=Fraction(1, 1), reached_at=1, "
            "table=((0, Fraction(1, 1)), (1, Fraction(1, 1))))",
        ),
        (e, "BRhoElement(coeffs=((0, Fraction(1, 1)), (2, Fraction(1, 2))), rho=Fraction(2, 1))"),
        (
            BRhoSeries((e,), Fraction(2)),
            "BRhoSeries(coeffs=(BRhoElement(coeffs=((0, Fraction(1, 1)), (2, "
            "Fraction(1, 2))), rho=Fraction(2, 1)),), rho=Fraction(2, 1))",
        ),
    ]


FIELDS = {
    Polynomial: ("terms",),
    GeneratorId: ("kind", "a", "b"),
    ReductionStep: ("generator", "multiplier", "scalar"),
    ReductionTrace: ("steps", "result"),
    IdentityCheck: ("identity", "indices", "passed", "lhs", "rhs"),
    CertificateReport: ("max_index", "checks"),
    RElement: ("poly",),
    TruncatedSeriesR: ("coeffs",),
    DivergenceCertificate: ("bound", "reached_at", "table"),
    BRhoElement: ("coeffs", "rho"),
    BRhoSeries: ("coeffs", "rho"),
}


@pytest.mark.parametrize("index", range(12))
def test_record_value_contract(index):
    record, pinned = _samples()[index]
    cls = type(record)
    names = FIELDS[cls]
    values = tuple(getattr(record, name) for name in names)
    assert repr(record) == pinned
    assert not hasattr(cls, "__dataclass_fields__") and not hasattr(record, "__dict__")
    # positional and keyword construction, in the field order
    for twin in (cls(*values), cls(**dict(zip(names, values)))):
        assert twin == record and not (twin != record) and hash(twin) == hash(record)
        assert twin is not record
    # equal only within its own class
    assert record != values and values != record
    assert record != object() and record != None  # noqa: E711
    for other, _ in _samples():
        assert (other == record) == (other is record or (type(other) is cls and repr(other) == pinned))
    for name in (*names, "extra"):
        with pytest.raises(AttributeError):
            setattr(record, name, 1)
        with pytest.raises(AttributeError):
            delattr(record, name)
    assert tuple(getattr(record, name) for name in names) == values
    for clone in (pickle.loads(pickle.dumps(record)), copy.copy(record), copy.deepcopy(record)):
        assert type(clone) is cls and clone == record and hash(clone) == hash(record)
        assert repr(clone) == pinned


def test_records_differ_when_one_field_differs():
    a = IdentityCheck("S", (1, 2), True, "a", "b")
    assert a != IdentityCheck("S", (1, 2), False, "a", "b")
    assert a != IdentityCheck("S", (1, 3), True, "a", "b")
    e = BRhoElement.from_dict({1: 1}, 2)
    assert e != BRhoElement.from_dict({1: 1}, 3)
    assert len({a, IdentityCheck("S", (1, 2), True, "a", "b"), e}) == 2


def test_generator_id_sort_order():
    ids = [G(2, 5), F(3), G(0, 1), F(0), G(0, 4), F(10), G(1, 2)]
    fields = [(g.kind, g.a, g.b) for g in ids]
    assert [(g.kind, g.a, g.b) for g in sorted(ids)] == sorted(fields)
    assert F(1) < F(2) <= F(2) < G(0, 1) and G(0, 1) > F(9) and G(0, 2) >= G(0, 1)
    with pytest.raises(TypeError):
        F(1) < (("F", 2, -1))


def test_record_constructors_check_their_fields():
    with pytest.raises(ValueError, match="G requires"):
        GeneratorId("G", 3, 3)
    with pytest.raises(ValueError, match="normal form"):
        RElement(parse("z^2"))
    with pytest.raises(ValueError, match="order-0"):
        TruncatedSeriesR(())
    with pytest.raises(TypeError, match="tuple of Terms"):
        Polynomial([])
    # unpickling goes through the checked constructor too
    assert pickle.loads(pickle.dumps(F(4))) is F(4)
    bad = object.__new__(RElement)
    object.__setattr__(bad, "poly", parse("z^2"))
    with pytest.raises(ValueError, match="normal form"):
        pickle.loads(pickle.dumps(bad))
