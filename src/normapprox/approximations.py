"""The nine closed-form logistic approximations of the standard normal CDF.

Every approximation shares the shape ``1/(1 + e^(-y(z)))`` for ``z >= 0`` with
a different exponent ``y``; negative arguments go through
``eval_cdf_extended``, which applies the reflection ``Phi(z) = 1 - Phi(-z)``.
Coefficients are kept exactly as the published formulas print them; no
refitting.  Each form is one ``ApproxDescriptor`` row of the registry, which
holds its exponent and its validity domain.  Evaluators are pure and the
registry is immutable.
"""

import math
from collections.abc import Callable
from dataclasses import dataclass

from .errors import DomainError, to_float

_PI = math.pi
_SQRT_PI = math.sqrt(_PI)


@dataclass(frozen=True)
class Phi9Coefficients:
    """Ordered coefficients k_1..k_17 of the exponent polynomial
    a(z) = sum_j k_j z^(j-1), tagged with their provenance variant."""

    k: tuple[float, ...]
    variant_tag: str

    def __post_init__(self):
        if len(self.k) != 17:
            raise DomainError("Phi9Coefficients requires exactly 17 entries")
        if not all(math.isfinite(c) for c in self.k):
            raise DomainError("Phi9Coefficients requires finite entries")


# Coefficients k1..k17 of the ninth approximation exactly as tabulated.
K_TABULATED = (
    1.5957691187,
    5.37366e-8,
    0.72670769,
    -9.229e-7,
    5.3498e-5,
    -9.0342e-5,
    1.049448e-4,
    -3.0263611e-3,
    2.99472642e-4,
    -1.98173433e-4,
    9.4285766e-5,
    -3.1366467e-5,
    7.1524366e-6,
    1.09550613e-6,
    1.079959e-7,
    -6.208087e-9,
    1.585371e-10,
)

# The entries in doubt, by zero-based position: each has two readings
# (tag, value, note), the tabulated one first.
PHI9_READINGS = {
    2: (("k3print", K_TABULATED[2], "k3 as printed"),
        ("k3shift", 0.072670769,
         "k3 shifted one digit right (cubic magnitude of the sibling formulas)")),
    4: (("k5plus", K_TABULATED[4], "k5 sign as tabulated"),
        ("k5minus", -5.3498e-5, "k5 sign from the running-text polynomial")),
    7: (("k8print", K_TABULATED[7], "k8 as printed"),
        ("k8shift", -3.0263611e-4, "k8 exponent shifted to match its neighbours")),
}


def phi9_reading(tags) -> tuple[float, ...]:
    """K_TABULATED with each entry in doubt read as ``tags`` names it (one tag
    per PHI9_READINGS position, in order)."""
    k = list(K_TABULATED)
    for (pos, readings), tag in zip(PHI9_READINGS.items(), tags, strict=True):
        k[pos] = next(value for t, value, _ in readings if t == tag)
    return tuple(k)


# Default coefficient variant shipped by the library: the winner of
# reconcile.reconcile_phi9 on the 0..5 step 0.001 grid (minimal grid MXAE
# among the eight printed-coefficient variants).  Re-run the ``reconcile``
# CLI command to regenerate the selection evidence.
_DEFAULT_TAGS = ("k3shift", "k5minus", "k8shift")
DEFAULT_PHI9 = Phi9Coefficients(k=phi9_reading(_DEFAULT_TAGS),
                                variant_tag="-".join(_DEFAULT_TAGS))


def _horner(z: float, k: tuple[float, ...]) -> float:
    # a(z) = sum_j k_j z^(j-1); the one Horner loop of the library
    acc = 0.0
    for c in reversed(k):
        acc = acc * z + c
    return acc


def phi9_linear_coefficient(z: float, coeffs: Phi9Coefficients | None = None) -> float:
    """a(z) = sum_j k_j z^(j-1) by Horner; DomainError unless z is finite."""
    z = to_float(z)
    if not math.isfinite(z):
        raise DomainError("phi9_linear_coefficient requires a finite abscissa")
    return _horner(z, (coeffs or DEFAULT_PHI9).k)


@dataclass(frozen=True, slots=True)
class ApproxDescriptor:
    """One approximation: identity, published accuracy, exponent, domain.

    ``y(z, coeffs)`` is the exponent; only the proposed form reads
    ``coeffs``.  ``domain_max`` is an exclusive upper bound on |z| (inf =
    unbounded): y increases on [0, domain_max), so the CDF is monotone there.
    ``reported_mxae``/``reported_mae`` are the published grid-error figures.
    """

    index: int
    name: str
    domain_max: float
    reported_mxae: float
    reported_mae: float
    y: Callable[[float, Phi9Coefficients | None], float]


_DESCRIPTORS = (
    ApproxDescriptor(1, "Tocher (1963)", math.inf, 1.77e-2, 7.05e-3,
                     lambda z, _: 2.0 * math.sqrt(2.0 / _PI) * z),
    # pole at z = 9
    ApproxDescriptor(2, "Lin (1990)", 9.0, 6.69e-3, 1.10e-3,
                     lambda z, _: 4.2 * _PI * z / (9.0 - z)),
    ApproxDescriptor(3, "Divgi (1990)", math.inf, 2.10e-3, 9.78e-4,
                     lambda z, _: 1.526 * z * (1.0 + 0.1034 * z)),
    # grouping validated against the published max error 3.14e-4:
    # y = z*sqrt(8/pi) + sqrt(2/pi)*(4-pi)*z^3/(3*pi)
    ApproxDescriptor(4, "Vedder (1993)", math.inf, 3.14e-4, 9.99e-5,
                     lambda z, _: (math.sqrt(8.0 / _PI) * z
                                   + math.sqrt(2.0 / _PI) * (4.0 - _PI) * z**3 / (3.0 * _PI))),
    # y' has its root at z = 7.96202, where the -z^5 term takes over
    ApproxDescriptor(5, "Waissi-Rossin (1996)", 7.96, 4.37e-5, 1.69e-5,
                     lambda z, _: _SQRT_PI * (0.9 * z + 0.0418198 * z**3 - 0.0004406 * z**5)),
    ApproxDescriptor(6, "Bowling et al. (2009)", math.inf, 1.42e-4, 6.88e-5,
                     lambda z, _: 1.5976 * z + 0.07056 * z**3),
    ApproxDescriptor(7, "Boiroju-Rao (2014)", math.inf, 2.41e-5, 7.26e-6,
                     lambda z, _: 0.5 * (-0.506445
                                         + 10.4467 * math.tanh(1.3448 + 0.3264 * z)
                                         + 9.8475 * math.tanh(-1.3519 + 0.3376 * z)
                                         + 1.5976 * z + 0.070565992 * z**3)),
    # y' has its root at z = 6.24178, where the -z^9 term takes over
    ApproxDescriptor(8, "Eidous-Ananbeh (2021)", 6.24, 7.62e-7, 1.82e-7,
                     lambda z, _: (1.5957764 * z + 0.0726161 * z**3 + 0.00003318 * z**6
                                   - 0.00021785 * z**7 + 0.00006293 * z**8
                                   - 0.00000519 * z**9)),
    ApproxDescriptor(9, "proposed", math.inf, 4.43e-10, 9.62e-11,
                     lambda z, c: _horner(z, (c or DEFAULT_PHI9).k) * z),
)

_BY_INDEX = {d.index: d for d in _DESCRIPTORS}


def list_approximations() -> tuple[ApproxDescriptor, ...]:
    """All nine descriptors in index order."""
    return _DESCRIPTORS


def descriptor(approx_id: int) -> ApproxDescriptor:
    """The registry row of ``approx_id``; DomainError for an unknown id."""
    d = _BY_INDEX.get(approx_id)
    if d is None:
        raise DomainError(f"unknown approximation id {approx_id!r}")
    return d


def eval_cdf_approx(approx_id: int, z: float,
                    coeffs: Phi9Coefficients | None = None) -> float:
    """Approximation ``approx_id`` at 0 <= z < domain_max.

    ``coeffs`` selects the exponent-polynomial variant for id 9 and is ignored
    otherwise.  Raises DomainError for z < 0 (use eval_cdf_extended), for z
    outside the form's domain, and for unknown ids.
    """
    try:
        z = float(z)
    except OverflowError:  # to_float, inlined on a hot path
        z = math.inf if z > 0 else -math.inf
    d = _BY_INDEX.get(approx_id) or descriptor(approx_id)  # descriptor() raises
    if not 0.0 <= z < d.domain_max:
        raise _domain_error(d, z)
    try:
        y = d.y(z, coeffs)
    except OverflowError:
        # every exponent increases on its domain, so one too large for a
        # double saturates the logistic at 1
        return 1.0
    if y >= 0.0:
        return 1.0 / (1.0 + math.exp(-y))
    e = math.exp(y)
    return e / (1.0 + e)


def _domain_error(d: ApproxDescriptor, z: float) -> DomainError:
    if not math.isfinite(z):
        return DomainError("eval_cdf_approx requires a finite abscissa")
    if z < 0.0:
        return DomainError("eval_cdf_approx requires z >= 0; "
                           "eval_cdf_extended handles negative z")
    return DomainError(f"{d.name} holds only for |z| < {d.domain_max:g}")


def eval_cdf_extended(approx_id: int, z: float) -> float:
    """Approximation extended to negative z via Phi(z) = 1 - Phi(-z);
    eval_cdf_approx converts and checks the argument."""
    if z >= 0.0:
        return eval_cdf_approx(approx_id, z)
    return 1.0 - eval_cdf_approx(approx_id, -z)
