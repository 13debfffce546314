"""Special functions and normalization constants for the fractional torsion fields.

Everything here is scalar double-precision arithmetic.  The two torsion
normalizers ``gamma_ns`` and ``gamma_nse`` feed the closed-form fields in
:mod:`fracshape.frlap`; the operator constant lives on :class:`FracParams`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field


class ParameterDomainError(ValueError):
    """Input a routine will not evaluate; the library's one input-error type."""


def gamma(x: float) -> float:
    """Gamma function on the real line, poles rejected explicitly.

    Relative accuracy is that of the platform libm (well below 1e-12 on
    [0.1, 50], which is the range the torsion constants actually use).
    Above x ~ 171.6 the value overflows a float, which is rejected too.
    """
    x = float(x)
    if x <= 0.0 and x == math.floor(x):
        raise ParameterDomainError(f"gamma has a pole at x={x:g}")
    try:
        return math.gamma(x)
    except OverflowError as exc:
        raise ParameterDomainError(f"gamma overflows a float at x={x:g}") from exc


# Hard cap on series length; the supported regime |z| < 1 converges long
# before this, so hitting the cap means the caller bypassed validation.
_MAX_TERMS = 4000


def gauss_2f1(a: float, b: float, c: float, z: float) -> float:
    """Gauss hypergeometric series 2F1(a, b; c; z) for -1 < z <= 0.

    Direct power-series summation with the term recurrence
    ``t_{k+1} = t_k (a+k)(b+k) z / ((c+k)(k+1))``, stopped once the next
    term falls below 1e-16 of the running sum.  On the nonpositive-z
    regime used here the terms alternate and decay geometrically, so the
    ratio test bounds the truncated tail by the last term.
    """
    a, b, c, z = float(a), float(b), float(c), float(z)
    if c <= 0.0 and c == math.floor(c):
        raise ParameterDomainError(f"2F1 undefined for c={c:g} (nonpositive integer)")
    if not (-1.0 < z <= 0.0):
        raise ParameterDomainError(f"2F1 series restricted to -1 < z <= 0, got z={z:g}")
    term = 1.0
    total = 1.0
    for k in range(_MAX_TERMS):
        term *= (a + k) * (b + k) / ((c + k) * (k + 1.0)) * z
        total += term
        if abs(term) <= 1e-16 * abs(total):
            return total
    raise ParameterDomainError(
        f"2F1 series failed to converge for (a={a:g}, b={b:g}, c={c:g}, z={z:g})"
    )


def normalization_constant(n: int, s: float) -> float:
    """Constant c_{n,s} multiplying the singular-integral operator.

    Chosen so that the quadratic profile with amplitude ``gamma_ns`` has
    operator value exactly one on the unit ball; the quadrature module
    validates this identity numerically.
    """
    return s * 4.0**s * gamma(n / 2.0 + s) / (math.pi ** (n / 2.0) * gamma(1.0 - s))


@dataclass(frozen=True)
class FracParams:
    """Dimension, fractional order, and the operator constant ``c_ns``,
    derived from ``(n, s)``."""

    n: int
    s: float
    c_ns: float = field(init=False)

    def __post_init__(self):
        if int(self.n) != self.n or self.n < 1:
            raise ParameterDomainError(f"dimension must be a positive integer, got {self.n!r}")
        object.__setattr__(self, "n", int(self.n))
        if not 0.0 < self.s < 1.0:
            raise ParameterDomainError(f"fractional order must satisfy 0 < s < 1, got {self.s!r}")
        object.__setattr__(self, "c_ns", normalization_constant(self.n, self.s))
        if not (self.c_ns > 0.0 and math.isfinite(self.c_ns)):
            raise ParameterDomainError(f"operator constant must be positive finite, got {self.c_ns!r}")


def gamma_ns(p: FracParams) -> float:
    """Amplitude of the ball torsion profile.

    For (n, s) = (2, 1/2) this equals 2/pi.
    """
    n, s = p.n, p.s
    return 2.0 ** (-2.0 * s) * gamma(n / 2.0) / (gamma((n + 2.0 * s) / 2.0) * gamma(1.0 + s))


def gamma_nse(p: FracParams, eps: float) -> float:
    """Amplitude of the torsion profile on the stretched ellipsoid.

    The eccentricity correction divides ``gamma_ns`` by
    ``(1+eps) * 2F1((n+2s)/2, 1/2; n/2; 1-(1+eps)^2)``; at ``eps = 0`` the
    hypergeometric factor is one and the ball value is recovered.
    """
    eps = float(eps)
    if not 0.0 <= eps < 0.25:
        raise ParameterDomainError(f"ellipsoid stretch restricted to 0 <= eps < 1/4, got {eps:g}")
    z = 1.0 - (1.0 + eps) ** 2
    f = gauss_2f1((p.n + 2.0 * p.s) / 2.0, 0.5, p.n / 2.0, z)
    return gamma_ns(p) / ((1.0 + eps) * f)
