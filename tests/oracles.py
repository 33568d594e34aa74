"""Independent oracles used by the tests.

These deliberately do not share an algorithm with the package: zeta comes
from mpmath at 30 digits, |chi| from mpmath's power, sin and gamma at 40,
the log-gamma oracle uses Binet's integral representation, and the theta
oracle is the classical asymptotic series.
"""

import cmath
import math
from math import pi

import mpmath
from scipy.integrate import quad


def zeta_mpmath(s: complex) -> complex:
    """zeta(s) from mpmath at 30 digits."""
    s = complex(s)
    with mpmath.workdps(30):
        return complex(mpmath.zeta(mpmath.mpc(s.real, s.imag)))


def chi_abs_mpmath(s: complex) -> mpmath.mpf:
    """|chi(s)| = |2^s pi^(s-1) sin(pi s/2) Gamma(1 - s)| from mpmath at 40
    digits, assembled directly rather than in log space."""
    s = complex(s)
    with mpmath.workdps(40):
        z = mpmath.mpc(s.real, s.imag)
        return abs(mpmath.power(2, z) * mpmath.power(mpmath.pi, z - 1)
                   * mpmath.sin(mpmath.pi * z / 2) * mpmath.gamma(1 - z))


def log_gamma_oracle(z: complex) -> complex:
    """Binet's integral: log Gamma(z) = (z - 1/2) Log z - z + log(2 pi)/2
    + 2 int_0^inf atan(t/z) / (e^(2 pi t) - 1) dt, valid for Re z > 0."""
    z = complex(z)

    def integrand_re(t):
        return cmath.atan(t / z).real / math.expm1(2 * pi * t)

    def integrand_im(t):
        return cmath.atan(t / z).imag / math.expm1(2 * pi * t)

    re, _ = quad(integrand_re, 0.0, 50.0, limit=400)
    im, _ = quad(integrand_im, 0.0, 50.0, limit=400)
    return (z - 0.5) * cmath.log(z) - z + 0.5 * math.log(2 * pi) + 2 * complex(re, im)


def theta_oracle(t: float) -> float:
    """Classical asymptotic series for the phase of the half-line factor;
    accurate to ~1e-10 for t >= 10."""
    return (
        t / 2 * math.log(t / (2 * pi))
        - t / 2
        - pi / 8
        + 1 / (48 * t)
        + 7 / (5760 * t ** 3)
    )
