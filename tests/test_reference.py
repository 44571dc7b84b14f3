"""Oracle tests: dual-method agreement, symmetry, tails, quantile behaviour."""

import ast
import math
import pathlib
import re
import sys
import textwrap
from decimal import Decimal
from fractions import Fraction
from statistics import NormalDist

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import normapprox
import quadrature
from normapprox import GRID_A, DomainError, ref_cdf, ref_quantile
from quadrature import oracle_cross_check, quadrature_cdf

# high-precision tail values, frozen from a 50-digit erfc evaluation
TAIL_VALUES = {
    -9.0: 1.1285884059538406e-19,
    -10.0: 7.619853024160526e-24,
    -12.0: 1.776482112077679e-33,
    -20.0: 2.7536241186062337e-89,
}


@pytest.mark.parametrize("z,expected", sorted(TAIL_VALUES.items()))
def test_tail_relative_accuracy(z, expected):
    assert ref_cdf(z) == pytest.approx(expected, rel=1e-12)


def test_cdf_absolute_accuracy_against_mpmath():
    # third route, sharing no code with the C library's erfc or with the
    # quadrature: 50-digit mpmath on a dense grid (measured worst 1.2e-16)
    with mpmath.workdps(50):
        worst = max(abs(mpmath.mpf(ref_cdf(z)) - mpmath.ncdf(z))
                    for z in (-8.0 + 0.002 * i for i in range(8001)))
    assert worst <= 2.5e-16


def test_tail_relative_accuracy_against_mpmath():
    # from z = -8 down to the underflow limit (z ~ -37.52), below which
    # Phi(z) is subnormal and keeps fewer than 53 bits (measured worst 1.9e-13)
    worst = 0.0
    with mpmath.workdps(50):
        z = -8.0
        while (exact := mpmath.ncdf(z)) >= sys.float_info.min:
            worst = max(worst, float(abs(mpmath.mpf(ref_cdf(z)) - exact) / exact))
            z -= 0.005
    assert z < -37.5
    assert worst <= 1e-12


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_cdf_rejects_non_finite(bad):
    with pytest.raises(DomainError):
        ref_cdf(bad)


@given(st.floats(min_value=0.0, max_value=8.0))
@settings(max_examples=200, deadline=None)
def test_symmetry(z):
    assert abs(ref_cdf(z) + ref_cdf(-z) - 1.0) <= 2e-16


def test_strict_monotonicity_coarse_grid():
    # 0.25 steps keep consecutive CDF increments above one ulp of 1.0 even at
    # the |z| = 8 ends, so strictness is meaningful there
    pts = [-8.0 + 0.25 * i for i in range(65)]
    vals = [ref_cdf(z) for z in pts]
    assert all(b > a for a, b in zip(vals, vals[1:]))


def test_monotonicity_fine_grid_nondecreasing():
    # at 0.01 steps the increments near |z| = 8 drop below double resolution,
    # so only non-decrease is checkable
    pts = [-8.0 + 0.01 * i for i in range(1601)]
    vals = [ref_cdf(z) for z in pts]
    assert all(b >= a for a, b in zip(vals, vals[1:]))


def test_cross_check_singleton_zero():
    # both methods give one half up to rounding at the symmetry point
    assert oracle_cross_check([0.0]) <= 1e-15


def test_quadrature_agrees_with_mpmath():
    # the cross-check route itself against 50-digit mpmath, on every 20th
    # point of [-8, 8] at step 0.002 (measured worst 4.2e-16)
    with mpmath.workdps(50):
        worst = max(abs(mpmath.mpf(quadrature_cdf(z)) - mpmath.ncdf(z))
                    for z in (-8.0 + 0.002 * i for i in range(0, 8001, 20)))
    assert worst <= 1e-15


def test_cross_check_catches_a_shifted_oracle(monkeypatch):
    # an oracle 1e-13 off everywhere must fail the 1e-14 gate
    monkeypatch.setattr(quadrature, "ref_cdf", lambda z: ref_cdf(z) + 1e-13)
    assert oracle_cross_check(GRID_A.points()) > 1e-14


def test_cross_check_rejects_out_of_range():
    with pytest.raises(DomainError):
        oracle_cross_check([9.0])


@pytest.mark.parametrize("bad, double", [
    (0.0, 0.0), (1.0, 1.0), (-0.5, -0.5), (1.5, 1.5), (math.nan, math.nan),
    (math.inf, math.inf), (True, 1.0), (-0.0, -0.0), (Decimal("NaN"), math.nan),
    # inside (0, 1), but the double of each is 0.0 or 1.0
    (Decimal("1e-400"), 0.0), (Fraction(1, 10**400), 0.0),
    (Decimal("0.99999999999999999999"), 1.0),
    # beyond the double range, named as the infinity of its sign
    (10**400, math.inf), (-10**400, -math.inf)],
    ids=["0.0", "1.0", "-0.5", "1.5", "nan", "inf", "True", "-0.0", "Decimal-NaN",
         "Decimal-1e-400", "Fraction-1/10**400", "Decimal-1-1e-20", "+10**400", "-10**400"])
def test_quantile_rejects_out_of_domain(bad, double):
    # the message names the double p became, not only the domain
    with pytest.raises(DomainError, match=re.escape(
            f"ref_quantile requires 0 < p < 1, and p as a double is {double!r}")):
        ref_quantile(bad)


@pytest.mark.parametrize("bad", ["0.5", None])
def test_quantile_rejects_a_non_number(bad):
    # p is converted as a double, as quantile_approx and eval_cdf_extended
    # convert theirs: a str is not parsed
    with pytest.raises(TypeError):
        ref_quantile(bad)


@given(st.floats(min_value=5e-324, max_value=1.0, exclude_max=True))
@settings(max_examples=200, deadline=None)
def test_quantile_satisfies_cdf_contract(p):
    z = ref_quantile(p)
    assert abs(ref_cdf(z) - p) <= 1e-14
    assert z == NormalDist().inv_cdf(p)  # the stdlib's AS 241, bit for bit


# p = 1 - 2^-k up to the last double below 1, deep lower tails, and a
# uniform sweep of the body
QUANTILE_GATE_PS = ([1.0 - 2.0**-k for k in range(1, 54)]
                    + [10.0**-k for k in range(3, 301, 3)]
                    + [i / 64 for i in range(1, 64)])


def _exact_quantile(p: float, seed: float):
    # 50-digit root of Phi(t) = p, solved for the smaller tail mass in log
    # form so that the residual stays well scaled down to p = 1e-300
    q = min(mpmath.mpf(p), 1 - mpmath.mpf(p))
    s = mpmath.findroot(lambda s: mpmath.log(mpmath.ncdf(-s)) - mpmath.log(q),
                        abs(seed))
    return -s if p < 0.5 else s


def test_quantile_relative_accuracy_against_mpmath():
    # measured worst 6.3e-16; findroot refines from the value under test, and
    # the root it converges to does not depend on where it starts
    with mpmath.workdps(50):
        for p in QUANTILE_GATE_PS:
            z = ref_quantile(p)
            exact = _exact_quantile(p, z)
            assert abs(mpmath.mpf(z) - exact) <= 1e-14 * abs(exact), p


def test_quantile_is_the_stdlib_as241_bit_for_bit():
    as241 = NormalDist().inv_cdf
    assert [ref_quantile(p) for p in QUANTILE_GATE_PS] == [as241(p) for p in QUANTILE_GATE_PS]
    # a p of another number type is its double
    for p in (Decimal("0.1"), Fraction(1, 3)):
        assert ref_quantile(p).hex() == as241(float(p)).hex(), p


def test_quantile_first_call_binds_as241_once(fresh_python):
    # ref_quantile binds AS 241 on its first valid call: a rejected p must
    # neither import statistics nor reach it (which would raise
    # StatisticsError), the call that binds must answer like later ones, and
    # what it binds is the C kernel that NormalDist.inv_cdf returns through
    probe = (
        "import sys\n"
        "from normapprox import DomainError, ref_quantile\n"
        "try:\n"
        "    ref_quantile(0.0)\n"
        "except DomainError:\n"
        "    print('DomainError', 'statistics' in sys.modules)\n"
        "first = ref_quantile(0.3)\n"
        "print('statistics' in sys.modules, first == ref_quantile(0.3), first.hex())\n"
        "import statistics, normapprox.reference as reference\n"
        "print(reference._as241 is statistics._normal_dist_inv_cdf)\n")
    done = fresh_python("-c", probe)
    assert done.stdout.split() == ["DomainError", "False", "True", "True",
                                   NormalDist().inv_cdf(0.3).hex(), "True"], done.stderr


def test_quantile_first_call_rejects_what_the_kernel_rejects(fresh_python):
    # the binding stub checks the domain before it imports statistics, on p
    # converted as the kernel converts it; at each bound it must agree with
    # the kernel, so the first valid call may be as small as 1e-300
    probe = (
        "import sys\n"
        "from decimal import Decimal\n"
        "from normapprox import DomainError, ref_quantile\n"
        "for p in (1.0, -0.0, float('nan'), True, Decimal('NaN'), 10**400, '0.5', None):\n"
        "    try:\n"
        "        ref_quantile(p)\n"
        "    except (DomainError, TypeError) as e:\n"
        "        print(type(e).__name__)\n"
        "print('statistics' in sys.modules, ref_quantile(1e-300).hex())\n")
    done = fresh_python("-c", probe)
    assert done.stdout.split() == ["DomainError"] * 6 + ["TypeError"] * 2 + [
        "False", NormalDist().inv_cdf(1e-300).hex()], done.stderr


def test_import_leaves_heavy_modules_unimported(fresh_python):
    # every CLI run pays these at start-up: statistics (about 5 ms) serves only
    # ref_quantile, which no CLI command calls, and dataclasses (about 11 ms,
    # mostly for the inspect it imports) would serve only the records
    heavy = ("statistics", "dataclasses", "inspect")
    done = fresh_python(
        "-c", f"import normapprox, sys; print(*[m in sys.modules for m in {heavy!r}])")
    assert done.stdout.split() == ["False"] * len(heavy), done.stderr


def test_import_loads_only_what_is_used(fresh_python):
    # -S, because site may preload pathlib, re and collections.abc: the package
    # loads its submodules (and metrics its array) on first use, and the CLI
    # imports json, csv and pathlib only for the format or command that needs them
    probe = ("import sys, normapprox\n"
             "print(*[m for m in sys.modules if m.startswith('normapprox.') or m == 'array'],"
             " sep=',')\n"
             "import normapprox.cli\n"
             "print(*[m for m in ('json', 'csv', 'pathlib') if m in sys.modules], sep=',')\n")
    done = fresh_python("-S", "-c", probe)
    assert done.stdout.split("\n") == ["", "", ""], done.stderr


# the submodule that defines each exported name
EXPORT_OWNERS = {
    "approximations": ["ApproxDescriptor", "DEFAULT_PHI9", "PHI9_VARIANTS", "Phi9Coefficients",
                       "eval_cdf_extended", "list_approximations"],
    "errors": ["DomainError"],
    "inverse": ["quantile_approx"],
    "metrics": ["DEFAULT_INVERSE_GRID", "GRID_A", "GRID_B", "ErrorReport", "GridSpec",
                "InverseRow", "compute_error_report", "error_curve", "inverse_table",
                "phi9_error_reports"],
    "reconcile": ["ReconciliationReport", "reconcile_phi9"],
    "reference": ["ref_cdf", "ref_quantile"],
}


def test_lazy_exports_keep_the_public_surface(fresh_python):
    # in a fresh process, so that every read goes through the module __getattr__
    pkg = pathlib.Path(normapprox.__file__).parent
    submodules = sorted(p.stem for p in pkg.glob("*.py") if p.stem != "__init__")
    probe = textwrap.dedent(f"""\
        import importlib, pickle, sys
        import normapprox
        for sub in {submodules!r}:
            assert getattr(normapprox, sub) is sys.modules["normapprox." + sub], sub
        owners = {EXPORT_OWNERS!r}
        assert sorted(n for names in owners.values() for n in names) \\
            == sorted(set(normapprox.__all__) - {{"__version__"}})
        for sub, names in owners.items():
            module = importlib.import_module("normapprox." + sub)
            for name in names:
                assert getattr(normapprox, name) is getattr(module, name), name
        try:
            normapprox.no_such_name
        except AttributeError:
            pass
        else:
            raise AssertionError("no_such_name resolved")
        assert not hasattr(normapprox, "no_such_name")
        assert set(normapprox.__all__) <= set(dir(normapprox))
        star = {{}}
        exec("from normapprox import *", star)
        assert len(normapprox.__all__) == 23
        assert set(star) - {{"__builtins__"}} == set(normapprox.__all__)
        assert all(star[n] is getattr(normapprox, n) for n in normapprox.__all__)
        row = normapprox.list_approximations()[0]
        assert pickle.loads(pickle.dumps(row)) is row
        print("ok")
        """)
    done = fresh_python("-c", probe)
    assert done.stdout == "ok\n", done.stderr


def test_src_imports_only_the_standard_library():
    # the package declares no runtime dependencies, so every public function
    # must run on a plain install; imports inside functions count too
    pkg = pathlib.Path(normapprox.__file__).parent
    third_party = []
    for path in sorted(pkg.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            third_party += [f"{path.name}:{node.lineno}: {name}" for name in names
                            if name.split(".")[0] not in sys.stdlib_module_names]
    assert third_party == []


@pytest.mark.parametrize("z", [0.5 * i for i in range(10)])  # 0 .. 4.5
def test_round_trip_within_information_limit(z):
    """z-space round trip at the accuracy the rounded p supports.

    For z <= 4.5 the half-ulp rounding of p = Phi(z) perturbs the exact
    quantile by less than 1e-12, so ref_quantile must come back that close.
    Beyond (z >= 5) the rounding alone costs 3e-11 .. 9e-9; the strict 1e-12
    assertion for those points lives in the acceptance suite, where its
    infeasibility is documented.
    """
    assert abs(ref_quantile(ref_cdf(z)) - z) <= 1e-12


@pytest.mark.parametrize("z,limit", [(5.0, 6e-11), (5.5, 2.3e-10), (6.0, 1.9e-8)])
def test_round_trip_tracks_information_limit_beyond(z, limit):
    # regression guard: stay within 2x the exact-inverse-of-rounded-p error
    assert abs(ref_quantile(ref_cdf(z)) - z) <= limit
