"""Independent references for the benchmark's output checks: mpmath at 30
digits for zeta, chi and Z, and exact integer floors for the golden-ratio
Beatty sequences.  Nothing here calls zetalab."""

from __future__ import annotations

import functools
import math

import mpmath
import numpy as np

mpmath.mp.dps = 30

# A check may disagree with zetalab only where the quantity it tests lies
# this close to its threshold, relative to max(1, |value|).  zetalab states
# 1e-9 absolute for |t| <= 1e4; the factor 10 covers heights up to 3e4 and
# lines left of 1/2, where the measured error is larger.
CONTRACT = 1e-8


@functools.lru_cache(maxsize=None)
def zeta(s: complex) -> complex:
    return complex(mpmath.zeta(mpmath.mpc(s.real, s.imag)))


def chi(s: complex) -> complex:
    z = mpmath.mpc(s.real, s.imag)
    return complex(mpmath.power(2, z) * mpmath.power(mpmath.pi, z - 1)
                   * mpmath.sin(mpmath.pi * z / 2) * mpmath.gamma(1 - z))


def hardy_z(t: float) -> float:
    return float(mpmath.siegelz(t))


def close(value: complex, exact: complex) -> bool:
    return abs(value - exact) <= CONTRACT * max(1.0, abs(exact))


def digits(value: complex, exact: complex) -> float:
    """Correct decimal digits of value, relative to max(1, |exact|)."""
    err = abs(complex(value) - exact) / max(1.0, abs(exact))
    return 17.0 if err == 0.0 else min(17.0, -math.log10(err))


def disk_verdict(points, target: complex, eps: float) -> tuple[bool, bool]:
    """(every |zeta(p) - target| < eps, some deviation within the contract
    of eps) at the given points."""
    inside, borderline = True, False
    for p in points:
        z = zeta(complex(p))
        dev = abs(z - target)
        inside &= dev < eps
        borderline |= abs(dev - eps) <= CONTRACT * max(1.0, abs(z))
    return inside, borderline


def modulus_verdict(points, bound: float, strict: bool) -> tuple[bool, bool]:
    """(every |zeta(p)| > bound (>= when not strict), borderline)."""
    above, borderline = True, False
    for p in points:
        z = zeta(complex(p))
        above &= abs(z) > bound if strict else abs(z) >= bound
        borderline |= abs(abs(z) - bound) <= CONTRACT * max(1.0, abs(z))
    return above, borderline


def isqrt_array(x: np.ndarray) -> np.ndarray:
    """Exact floor(sqrt(x)) for non-negative int64 values below 2**52."""
    x = np.asarray(x, dtype=np.int64)
    if x.size and int(x.max()) >= 2**52:
        raise ValueError("isqrt_array needs values below 2**52")
    r = np.floor(np.sqrt(x.astype(np.float64))).astype(np.int64)
    r -= (r * r > x).astype(np.int64)
    r += ((r + 1) * (r + 1) <= x).astype(np.int64)
    return r


def golden_floors(n: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(floor(n phi), floor(n phi^2)) exactly, phi the golden ratio."""
    n = np.asarray(n, dtype=np.int64)
    lower = (n + isqrt_array(5 * n * n)) // 2
    return lower, lower + n


def golden_swap(n_max: int) -> np.ndarray:
    """swap[n] = the golden swap permutation of n, for 1 <= n <= n_max
    (floor(m phi) <-> floor(m phi^2)); swap[0] is unused."""
    m = np.arange(1, n_max + 1, dtype=np.int64)
    lower, upper = golden_floors(m)
    swap = np.zeros(max(n_max, int(upper.max())) + 1, dtype=np.int64)
    swap[lower] = upper
    swap[upper] = lower
    return swap[: n_max + 1]
