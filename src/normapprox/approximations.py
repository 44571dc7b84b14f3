"""The nine closed-form logistic approximations of the standard normal CDF.

Every approximation shares the shape ``1/(1 + e^(-y(z)))`` for ``z >= 0`` with
a different exponent ``y``.  ``eval_cdf_extended``, the one scalar entry
point, evaluates it there and reaches negative arguments through the
reflection ``Phi(z) = 1 - Phi(-z)``.
Coefficients are kept exactly as the published formulas print them; no
refitting.  Each form is one ``ApproxDescriptor`` row of the registry, which
holds its exponent and its validity domain.  Evaluators are pure and the
registry is immutable.
"""

import math
from itertools import product

from .errors import DomainError, Record, to_float

_PI = math.pi
_SQRT_PI = math.sqrt(_PI)
# The constant factors of the phi1 and phi4 exponents, each grouped as the
# published expression evaluates left to right, so every exponent keeps its bits.
_PHI1_SLOPE = 2.0 * math.sqrt(2.0 / _PI)
_SQRT_8_PI = math.sqrt(8.0 / _PI)
_PHI4_CUBIC = math.sqrt(2.0 / _PI) * (4.0 - _PI)
_3_PI = 3.0 * _PI


class Phi9Coefficients(Record):
    """Ordered coefficients k_1..k_17 of the exponent polynomial
    a(z) = sum_j k_j z^(j-1), stored as a tuple of floats, tagged with their
    provenance variant and with what sets the variant apart from the other
    printed readings."""

    __slots__ = ("k", "variant_tag", "notes")
    _defaults = {"notes": ""}

    def _check(self, k, variant_tag, notes):
        k = tuple(map(to_float, k))
        if len(k) != 17:
            raise DomainError("Phi9Coefficients requires exactly 17 entries")
        if not all(math.isfinite(c) for c in k):
            raise DomainError("Phi9Coefficients requires finite entries")
        return k, variant_tag, notes


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
_PHI9_READINGS = {
    2: (("k3print", K_TABULATED[2], "k3 as printed"),
        ("k3shift", 0.072670769,
         "k3 shifted one digit right (cubic magnitude of the sibling formulas)")),
    4: (("k5plus", K_TABULATED[4], "k5 sign as tabulated"),
        ("k5minus", -5.3498e-5, "k5 sign from the running-text polynomial")),
    7: (("k8print", K_TABULATED[7], "k8 as printed"),
        ("k8shift", -3.0263611e-4, "k8 exponent shifted to match its neighbours")),
}

# Combinations of readings that follow one printed source throughout.
_LITERAL_LABELS = {
    ("k3print", "k5plus", "k8print"): "table-literal",
    ("k3print", "k5minus", "k8print"): "prose-literal",
}


def _phi9_variant(readings) -> Phi9Coefficients:
    # K_TABULATED with each entry in doubt read as its (tag, value, note) says
    tags, values, notes = zip(*readings)
    k = list(K_TABULATED)
    for pos, value in zip(_PHI9_READINGS, values):
        k[pos] = value
    return Phi9Coefficients(k=k, variant_tag=_LITERAL_LABELS.get(tags, "-".join(tags)),
                            notes="; ".join(notes))


# The eight variants, every combination of the readings with k8's varying
# fastest: table-literal first, prose-literal third.
PHI9_VARIANTS = tuple(map(_phi9_variant, product(*_PHI9_READINGS.values())))

# Default coefficient variant shipped by the library: the winner of
# reconcile.reconcile_phi9 on the 0..5 step 0.001 grid (minimal grid MXAE
# among the eight printed-coefficient variants).  Re-run the ``reconcile``
# CLI command to regenerate the selection evidence.
DEFAULT_PHI9 = next(v for v in PHI9_VARIANTS if v.variant_tag == "k3shift-k5minus-k8shift")


def _horner(z: float, k: tuple[float, ...]) -> float:
    # a(z) = sum_j k_j z^(j-1) by Horner, unrolled for speed.  It equals the
    # loop acc = acc*z + c over reversed(k) from acc = 0.0 bit for bit: the
    # loop's first step, 0.0*z + k17, is exactly k17 for finite z.
    k1, k2, k3, k4, k5, k6, k7, k8, k9, k10, k11, k12, k13, k14, k15, k16, k17 = k
    return (((((((((((((((k17 * z + k16) * z + k15) * z + k14) * z + k13) * z
                        + k12) * z + k11) * z + k10) * z + k9) * z + k8) * z
                  + k7) * z + k6) * z + k5) * z + k4) * z + k3) * z + k2) * z + k1


def phi9_linear_coefficient(z: float, coeffs: Phi9Coefficients | None = None) -> float:
    """a(z) = sum_j k_j z^(j-1) by Horner; DomainError unless z is finite.

    ``coeffs`` is a ``Phi9Coefficients`` reading, and only None selects
    DEFAULT_PHI9; anything else raises TypeError.
    """
    z = to_float(z)
    if not math.isfinite(z):
        raise DomainError("phi9_linear_coefficient requires a finite abscissa")
    if coeffs is None:
        coeffs = DEFAULT_PHI9
    elif not isinstance(coeffs, Phi9Coefficients):
        raise TypeError("phi9_linear_coefficient requires Phi9Coefficients or None, "
                        f"not {type(coeffs).__name__}")
    return _horner(z, coeffs.k)


class ApproxDescriptor(Record):
    """One approximation: identity, published accuracy, exponent, domain.

    ``y(z)`` is the exponent; phi9's reads DEFAULT_PHI9.  ``domain_max`` is
    an exclusive upper bound on |z| (inf = unbounded): y increases on
    [0, domain_max), so the CDF is monotone there.
    ``reported_mxae``/``reported_mae`` are the published grid-error figures.
    A registry row unpickles and copies to itself, without ``_check``.
    """

    __slots__ = ("index", "name", "domain_max", "reported_mxae", "reported_mae", "y")

    def __reduce__(self):
        # a registry row's exponent is a lambda, so the row pickles by its index
        if _BY_INDEX.get(self.index) is self:
            return descriptor, (self.index,)
        return super().__reduce__()


_DESCRIPTORS = (
    ApproxDescriptor(1, "Tocher (1963)", math.inf, 1.77e-2, 7.05e-3,
                     lambda z: _PHI1_SLOPE * z),
    # pole at z = 9
    ApproxDescriptor(2, "Lin (1990)", 9.0, 6.69e-3, 1.10e-3,
                     lambda z: 4.2 * _PI * z / (9.0 - z)),
    ApproxDescriptor(3, "Divgi (1990)", math.inf, 2.10e-3, 9.78e-4,
                     lambda z: 1.526 * z * (1.0 + 0.1034 * z)),
    # grouping validated against the published max error 3.14e-4:
    # y = z*sqrt(8/pi) + sqrt(2/pi)*(4-pi)*z^3/(3*pi)
    ApproxDescriptor(4, "Vedder (1993)", math.inf, 3.14e-4, 9.99e-5,
                     lambda z: _SQRT_8_PI * z + _PHI4_CUBIC * z**3 / _3_PI),
    # y' has its root at z = 7.96202, where the -z^5 term takes over
    ApproxDescriptor(5, "Waissi-Rossin (1996)", 7.96, 4.37e-5, 1.69e-5,
                     lambda z: _SQRT_PI * (0.9 * z + 0.0418198 * z**3 - 0.0004406 * z**5)),
    ApproxDescriptor(6, "Bowling et al. (2009)", math.inf, 1.42e-4, 6.88e-5,
                     lambda z: 1.5976 * z + 0.07056 * z**3),
    ApproxDescriptor(7, "Boiroju-Rao (2014)", math.inf, 2.41e-5, 7.26e-6,
                     lambda z: 0.5 * (-0.506445
                                      + 10.4467 * math.tanh(1.3448 + 0.3264 * z)
                                      + 9.8475 * math.tanh(-1.3519 + 0.3376 * z)
                                      + 1.5976 * z + 0.070565992 * z**3)),
    # y' has its root at z = 6.24178, where the -z^9 term takes over
    ApproxDescriptor(8, "Eidous-Ananbeh (2021)", 6.24, 7.62e-7, 1.82e-7,
                     lambda z: (1.5957764 * z + 0.0726161 * z**3 + 0.00003318 * z**6
                                - 0.00021785 * z**7 + 0.00006293 * z**8
                                - 0.00000519 * z**9)),
    ApproxDescriptor(9, "proposed", math.inf, 4.43e-10, 9.62e-11,
                     lambda z: _horner(z, DEFAULT_PHI9.k) * z),
)

_BY_INDEX = {d.index: d for d in _DESCRIPTORS}


def list_approximations() -> tuple[ApproxDescriptor, ...]:
    """All nine descriptors in index order."""
    return _DESCRIPTORS


def descriptor(approx_id: int) -> ApproxDescriptor:
    """The registry row of ``approx_id``; DomainError for an unknown id,
    including one that is not an ``int`` (``True`` and ``1.0`` hash as 1)."""
    d = _BY_INDEX.get(approx_id)
    if d is None or type(approx_id) is not int:
        raise DomainError(f"unknown approximation id {approx_id!r}")
    return d


def eval_cdf_extended(approx_id: int, z: float) -> float:
    """Approximation ``approx_id`` at |z| < domain_max, through
    Phi(z) = 1 - Phi(-z) for z < 0: the one scalar CDF entry point; phi9
    reads DEFAULT_PHI9 (``phi9_error_reports`` scores other readings).  It
    compares the raw z first, so a string is a TypeError, then negates,
    converts and checks; DomainError for a z outside the domain and for
    unknown ids."""
    flip = False
    if not z >= 0.0:  # a bare compare, which CPython fuses with the branch
        flip = True
        z = -z
    try:
        z = float(z)
    except OverflowError:  # to_float, inlined on a hot path
        z = math.inf if z > 0 else -math.inf
    d = _BY_INDEX.get(approx_id)
    if d is None or type(approx_id) is not int:
        descriptor(approx_id)  # raises
    if not 0.0 <= z < d.domain_max:  # z >= 0 here unless it is NaN
        if not math.isfinite(z):
            raise DomainError("eval_cdf_extended requires a finite abscissa")
        raise DomainError(f"{d.name} holds only for |z| < {d.domain_max:g}")
    try:
        y = d.y(z)
    except OverflowError:
        # every exponent increases on its domain, so one too large for a
        # double saturates the logistic at 1
        y = math.inf
    if y >= 0.0:
        v = 1.0 / (1.0 + math.exp(-y))
    else:
        e = math.exp(y)
        v = e / (1.0 + e)
    return 1.0 - v if flip else v
