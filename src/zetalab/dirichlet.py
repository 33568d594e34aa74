"""Bounded-coefficient Dirichlet series on vertical arithmetic progressions:
the coefficient difference phi_n(m), the minimal nonzero index mu, the
per-n bound b_n = 1 + 2 B mu / |phi_n(mu)| and the uniqueness certificate
built from a finite scan.  phi_n is computed in one place, `_phis`, over
index arrays: find_mu decides mu on its blocks and phi_n is the one-index
case, so the phi_n(mu) a certificate reports is the value that decided mu."""

from __future__ import annotations

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
    how `values` and `nonzero_mask` call them.
    """

    eval: Callable[[np.ndarray], np.ndarray]
    bound_B: float
    support_hint: Optional[Callable[[np.ndarray], np.ndarray]] = None

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

    def nonzero_mask(self, m: np.ndarray) -> np.ndarray:
        """False where support_hint marks f(m) as 0, over an int64 index array."""
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
        if not math.isfinite(self.t):
            raise ValueError(f"t must be finite, got {self.t}")
        if not 0.0 < self.delta < math.inf:
            raise ValueError(f"delta must be finite and positive, got {self.delta}")

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
    if n_terms < 1:
        raise ValueError(f"n_terms must be at least 1, got {n_terms}")
    if s.real <= 1.0:
        raise DivergentRegion(f"Re s = {s.real} <= 1: no absolute convergence")
    m = np.arange(1, n_terms + 1)
    if f.support_hint is not None:
        m = m[f.nonzero_mask(m)]
    total = complex((f.values(m) * np.exp(-s * np.log(m.astype(np.float64)))).sum())
    tail = f.bound_B * n_terms ** (1.0 - s.real) / (s.real - 1.0)
    return total, tail


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
    return complex(_phis(f1, f2, p1.shift(n), p2.shift(sigma(n)), np.array([m]))[0])


def _phis(f1: BoundedCoeffFn, f2: BoundedCoeffFn, theta1: float, theta2: float,
          m: np.ndarray) -> np.ndarray:
    """f1(m) m^{-i theta1} - f2(m) m^{-i theta2} over an int64 index array,
    a term 0 where its support hint marks f as 0."""
    logs = np.log(m.astype(np.float64))
    live1, live2 = f1.nonzero_mask(m), f2.nonzero_mask(m)
    out = np.zeros(m.size, dtype=np.complex128)
    out[live1] = f1.values(m[live1]) * np.exp(-1j * theta1 * logs[live1])
    out[live2] -= f2.values(m[live2]) * np.exp(-1j * theta2 * logs[live2])
    return out


def check_uniqueness_bound(n_max: int, m_max: int, tol: float) -> None:
    """Refuse what uniqueness_bound refuses, before it scans anything; find_mu
    refuses m_max and tol alike."""
    for name, limit in (("n_max", n_max), ("m_max", m_max)):
        if limit < 1:
            raise ValueError(f"{name} must be at least 1, got {limit}")
    if not 0.0 < tol < math.inf:
        raise ValueError(f"tol must be finite and positive, got {tol}")


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
    """Smallest m <= m_max with |phi_n(m)| > tol + 16 eps |theta| log(m + 1),
    |theta| = |t1 + d1 n| + |t2 + d2 sigma(n)|; None if there is none.

    The zero test widens with the phase magnitude: exp(-i theta log m) is
    computed with absolute error ~ |theta log m| eps, so a fixed tol would
    misread roundoff as a nonzero coefficient on long progressions.

    One array pass: m is searched in blocks of growing size, skipping the
    indices where both support hints mark f as 0, and the first m of a
    block whose |phi_n(m)| clears the guard is mu."""
    check_uniqueness_bound(1, m_max, tol)  # a scan of one n
    eps = math.ulp(1.0)
    theta1, theta2 = p1.shift(n), p2.shift(sigma(n))
    phases = abs(theta1) + abs(theta2)
    start, block = 1, 256
    while start <= m_max:
        m = np.arange(start, min(start + block, m_max + 1))
        m = m[f1.nonzero_mask(m) | f2.nonzero_mask(m)]
        phi = np.abs(_phis(f1, f2, theta1, theta2, m))
        over = phi > tol + 16.0 * eps * phases * np.log((m + 1).astype(np.float64))
        if over.any():
            return int(m[np.argmax(over)])
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
    check_uniqueness_bound(n_max, m_max, tol)
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
