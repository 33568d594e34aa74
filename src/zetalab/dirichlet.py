"""Bounded-coefficient Dirichlet series on vertical arithmetic progressions:
the coefficient difference phi_n(m), the minimal nonzero index mu, the
per-n bound b_n = 1 + 2 B mu / |phi_n(mu)| and the uniqueness certificate
built from a finite scan."""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import DivergentRegion, SampleBelowBound

DEFAULT_TOL = 1e-12  # decides "phi_n(m) != 0" in floating point
_VERIFY_TERMS = 20000  # series terms per sample in verify_distinct_beyond_b
_VERIFY_SLACK = 1e-9  # rounding allowance of verify_distinct_beyond_b's bound


@dataclass(frozen=True)
class BoundedCoeffFn:
    """Arithmetic function m -> f(m) with declared bound |f(m)| <= B.

    `support_hint` may mark indices where f is certainly zero, letting
    scans skip them; nothing checks it against eval, so the scans trust it.
    Both are numpy-style: given an int64 array of indices they answer
    elementwise (eval may answer with one scalar for every index), which is
    how the scans call them.
    """

    eval: Callable[[int], complex]
    bound_B: float
    support_hint: Optional[Callable[[int], bool]] = None

    def __call__(self, m: int) -> complex:
        value = complex(self.eval(m))
        if abs(value) > self.bound_B * (1.0 + 1e-12):
            raise ValueError(
                f"|f({m})| = {abs(value)} exceeds declared bound {self.bound_B}"
            )
        return value

    def values(self, m: np.ndarray) -> np.ndarray:
        """f over an int64 index array, every value checked against the bound."""
        v = np.broadcast_to(np.asarray(self.eval(m), dtype=np.complex128), m.shape)
        over = np.abs(v) > self.bound_B * (1.0 + 1e-12)
        if over.any():
            i = int(np.argmax(over))
            raise ValueError(
                f"|f({m[i]})| = {abs(v[i])} exceeds declared bound {self.bound_B}"
            )
        return v

    def maybe_nonzero(self, m: int) -> bool:
        return self.support_hint is None or self.support_hint(m)

    def nonzero_mask(self, m: np.ndarray) -> np.ndarray:
        """maybe_nonzero over an int64 index array."""
        if self.support_hint is None:
            return np.ones(m.shape, dtype=bool)
        return np.asarray(self.support_hint(m), dtype=bool)


def constant_one(bound: float = 1.0) -> BoundedCoeffFn:
    """f = 1: the zeta specialisation."""
    return BoundedCoeffFn(eval=lambda m: 1.0, bound_B=bound)


def power_of_two_indicator() -> BoundedCoeffFn:
    """f(m) = 1 iff m is a power of two: the counterexample coefficient."""
    def is_pow2(m):
        return m & (m - 1) == 0

    return BoundedCoeffFn(eval=lambda m: 1.0 * is_pow2(m), bound_B=1.0, support_hint=is_pow2)


@dataclass(frozen=True)
class Progression:
    """Vertical arithmetic progression generating shifts t + delta * n."""

    t: float
    delta: float

    def __post_init__(self):
        if not self.delta > 0:
            raise ValueError("delta must be positive")

    def shift(self, n: int) -> float:
        return self.t + self.delta * n


class Permutation:
    """Lazily evaluated map n -> forward(n) of the positive integers, meant
    to be a bijection.  Only the positivity of each image is checked, when
    it is taken; bijectivity is the caller's promise."""

    def __init__(self, forward: Callable[[int], int]):
        self.forward = forward

    def __call__(self, n: int) -> int:
        image = self.forward(n)
        if image < 1:
            raise ValueError(f"permutation image {image} of {n} not a positive integer")
        return image


def identity_permutation() -> Permutation:
    return Permutation(lambda n: n)


def transposition(n1: int, n2: int) -> Permutation:
    def fwd(n: int) -> int:
        if n == n1:
            return n2
        if n == n2:
            return n1
        return n

    return Permutation(fwd)


def dirichlet_eval(f: BoundedCoeffFn, s: complex, n_terms: int) -> tuple[complex, float]:
    """Partial sum of sum f(m) m^{-s} with a rigorous tail bound
    B * n_terms^(1 - Re s) / (Re s - 1)."""
    s = complex(s)
    if s.real <= 1.0:
        raise DivergentRegion(f"Re s = {s.real} <= 1: no absolute convergence")
    m = np.arange(1, n_terms + 1)
    logs = np.log(m.astype(np.float64))
    if f.support_hint is not None:
        m = m[f.nonzero_mask(m)]
        logs = logs[m - 1]
    total = complex((f.values(m) * np.exp(-s * logs)).sum()) if m.size else 0.0 + 0.0j
    tail = f.bound_B * n_terms ** (1.0 - s.real) / (s.real - 1.0)
    return total, tail


def _unit_power(m: int, theta: float) -> complex:
    """m^{-i theta} = exp(-i theta log m), branch-unambiguous for m >= 1."""
    return cmath.exp(-1j * theta * math.log(m))


def _phi(f1: BoundedCoeffFn, f2: BoundedCoeffFn, theta1: float, theta2: float, m: int) -> complex:
    a = f1(m) * _unit_power(m, theta1) if f1.maybe_nonzero(m) else 0.0
    b = f2(m) * _unit_power(m, theta2) if f2.maybe_nonzero(m) else 0.0
    return a - b


def phi_n(
    f1: BoundedCoeffFn,
    f2: BoundedCoeffFn,
    p1: Progression,
    p2: Progression,
    sigma: Permutation,
    n: int,
    m: int,
) -> complex:
    """phi_n(m) = f1(m) m^{-i(t1 + d1 n)} - f2(m) m^{-i(t2 + d2 sigma(n))}."""
    if n < 1 or m < 1:
        raise ValueError("n and m must be positive")
    return _phi(f1, f2, p1.shift(n), p2.shift(sigma(n)), m)


def _unit_powers(f: BoundedCoeffFn, m: np.ndarray, live: np.ndarray, logs: np.ndarray,
                 theta: float) -> np.ndarray:
    """f(m) m^{-i theta} over an index array, 0 where `live` marks f as 0."""
    out = np.zeros(m.size, dtype=np.complex128)
    out[live] = f.values(m[live]) * np.exp(-1j * theta * logs[live])
    return out


def find_mu(
    f1: BoundedCoeffFn,
    f2: BoundedCoeffFn,
    p1: Progression,
    p2: Progression,
    sigma: Permutation,
    n: int,
    m_max: int,
    tol: float = DEFAULT_TOL,
) -> Optional[int]:
    """Smallest m <= m_max with |phi_n(m)| > tol; None if all vanish.

    The zero test widens with the phase magnitude: exp(-i theta log m) is
    computed with absolute error ~ |theta log m| eps, so a fixed tol would
    misread roundoff as a nonzero coefficient on long progressions.

    m is searched in numpy blocks of growing size.  numpy's log and exp may
    differ from math's and cmath's by a few ulps, which moves a term
    f(m) m^{-i theta} by at most B eps (|theta| log m + 2), well inside
    `slack`.  So every m whose block value clears guard - slack is settled
    by the scalar phi_n, in order, and no other m can pass the scalar test:
    mu and phi_n(mu) are those of the one-m-at-a-time scan."""
    if m_max < 1:
        raise ValueError(f"m_max must be at least 1, got {m_max}")
    if not 0.0 < tol < math.inf:
        raise ValueError(f"tol must be finite and positive, got {tol}")
    eps = math.ulp(1.0)
    theta1, theta2 = p1.shift(n), p2.shift(sigma(n))
    phases = abs(theta1) + abs(theta2)
    bound = max(f1.bound_B, f2.bound_B)
    start, block = 1, 256
    while start <= m_max:
        m = np.arange(start, min(start + block, m_max + 1))
        live1, live2 = f1.nonzero_mask(m), f2.nonzero_mask(m)
        live = live1 | live2
        m, live1, live2 = m[live], live1[live], live2[live]
        logs = np.log(m.astype(np.float64))
        phi = np.abs(
            _unit_powers(f1, m, live1, logs, theta1) - _unit_powers(f2, m, live2, logs, theta2)
        )
        log_next = np.log((m + 1).astype(np.float64))
        guard = tol + 16.0 * eps * phases * log_next
        slack = 4.0 * bound * eps * (phases * log_next + 1.0)
        for k in m[phi > guard - slack].tolist():
            if abs(_phi(f1, f2, theta1, theta2, k)) > tol + 16.0 * eps * phases * math.log(k + 1):
                return k
        start += block
        block = min(8 * block, 1 << 16)
    return None


@dataclass(frozen=True)
class UniquenessCertificate:
    """Finite-scan proxy for the explicit uniqueness bound b.

    b is the min of b_n over the scanned n (an upper proxy for the true
    infimum); the witness fields describe the n achieving it.
    """

    n: int
    mu: int
    phi_mu: complex
    b_n: float
    b: float
    scan_limits: tuple[int, int]
    tol: float = DEFAULT_TOL


def uniqueness_bound(
    f1: BoundedCoeffFn,
    f2: BoundedCoeffFn,
    p1: Progression,
    p2: Progression,
    sigma: Permutation,
    n_max: int,
    m_max: int,
    tol: float = DEFAULT_TOL,
) -> Optional[UniquenessCertificate]:
    """Scan n <= n_max, compute b_n = 1 + 2 B mu / |phi_n(mu)| wherever a
    nonzero phi was found, and return the best certificate (or None)."""
    if n_max < 1 or m_max < 1:
        raise ValueError("scan limits must be >= 1")
    bound = max(f1.bound_B, f2.bound_B)
    best = None
    for n in range(1, n_max + 1):
        mu = find_mu(f1, f2, p1, p2, sigma, n, m_max, tol)
        if mu is None:
            continue
        value = phi_n(f1, f2, p1, p2, sigma, n, mu)
        b_n = 1.0 + 2.0 * bound * mu / abs(value)
        if best is None or b_n < best.b_n:
            best = UniquenessCertificate(
                n=n, mu=mu, phi_mu=value, b_n=b_n, b=b_n,
                scan_limits=(n_max, m_max), tol=tol,
            )
    return best


@dataclass(frozen=True)
class DistinctnessReport:
    differences: list
    lower_bounds: list
    violations: list


def verify_distinct_beyond_b(
    cert: UniquenessCertificate,
    f1: BoundedCoeffFn,
    f2: BoundedCoeffFn,
    p1: Progression,
    p2: Progression,
    sigma: Permutation,
    s_samples: list[complex],
) -> DistinctnessReport:
    """At each sample with Re s > b, confirm that the two series, each
    summed to _VERIFY_TERMS terms with its tail bound, differ by at least
    |phi(mu)| mu^{-Re s} - 2 B mu^{1 - Re s} / (Re s - 1) - _VERIFY_SLACK."""
    bound = max(f1.bound_B, f2.bound_B)
    n = cert.n
    shift2 = p2.shift(sigma(n))
    diffs, lbs, bad = [], [], []
    for s in s_samples:
        s = complex(s)
        if s.real <= cert.b:
            raise SampleBelowBound(f"Re {s} <= certified bound {cert.b}")
        v1, tail1 = dirichlet_eval(f1, s + 1j * p1.shift(n), _VERIFY_TERMS)
        v2, tail2 = dirichlet_eval(f2, s + 1j * shift2, _VERIFY_TERMS)
        diff = abs(v1 - v2)
        lb = (
            abs(cert.phi_mu) * cert.mu ** (-s.real)
            - 2.0 * bound * cert.mu ** (1.0 - s.real) / (s.real - 1.0)
        )
        diffs.append(diff)
        lbs.append(lb)
        if diff < lb - _VERIFY_SLACK - tail1 - tail2:
            bad.append(s)
    return DistinctnessReport(differences=diffs, lower_bounds=lbs, violations=bad)
