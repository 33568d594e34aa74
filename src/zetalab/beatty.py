"""Beatty sequences, the Rayleigh dissection, the swap permutation built
from a conjugate pair, and the finite exclusion scan over the root sets of
the quadratic that encodes rational dependencies of 1, alpha, alpha' and
alpha theta1 + alpha' theta2."""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import numpy as np

from .errors import AmbiguousFloor, Unclassifiable

FLOOR_GUARD = 1e-9

# 30-digit surrogates for the named irrationals (floats carry ~17 digits;
# the literals keep the source of truth explicit).
GOLDEN = float("1.61803398874989484820458683436564")
SQRT2 = float("1.41421356237309504880168872420970")
SQRT3 = float("1.73205080756887729352744634150587")

NAMED_IRRATIONALS = {"golden": GOLDEN, "sqrt2": SQRT2, "sqrt3": SQRT3}


@dataclass(frozen=True)
class BeattyPair:
    """alpha > 1 with its Rayleigh conjugate alpha' = alpha / (alpha - 1)."""

    alpha: float
    alpha_prime: float

    def __post_init__(self):
        if not (self.alpha > 1.0 and self.alpha_prime > 1.0):
            raise ValueError("both alpha and alpha' must exceed 1")
        if abs(1.0 / self.alpha + 1.0 / self.alpha_prime - 1.0) > 1e-14:
            raise ValueError("1/alpha + 1/alpha' must equal 1")

    @classmethod
    def from_alpha(cls, alpha: float) -> "BeattyPair":
        return cls(alpha=alpha, alpha_prime=alpha / (alpha - 1.0))


def beatty_term(alpha: float, m: int) -> int:
    """floor(m * alpha) with a loud guard: a near-integer product that is
    not an exact float integer cannot be floored reliably."""
    if alpha <= 1.0 or m < 1:
        raise ValueError("alpha > 1 and m >= 1 required")
    x = m * alpha
    nearest = round(x)
    if x != nearest and abs(x - nearest) < FLOOR_GUARD:
        raise AmbiguousFloor(f"{m} * {alpha} = {x} is within {FLOOR_GUARD} of an integer")
    return math.floor(x)


def beatty_terms(alpha: float, m: np.ndarray) -> np.ndarray:
    """floor(m * alpha) for an array of multipliers m, as floats, with the
    guard of beatty_term."""
    x = m * alpha
    nearest = np.round(x)
    close = (x != nearest) & (np.abs(x - nearest) < FLOOR_GUARD)
    if np.any(close):
        bad = m[np.nonzero(close)[0][0]]
        raise AmbiguousFloor(f"{int(bad)} * {alpha} is within {FLOOR_GUARD} of an integer")
    return np.floor(x, out=x)


def _beatty_values(alpha: float, n_max: int) -> np.ndarray:
    """floor(m alpha) for all m with floor(m alpha) <= n_max, vectorised."""
    m_top = int(n_max / alpha) + 2
    m = np.arange(1, m_top + 1, dtype=np.float64)
    vals = beatty_terms(alpha, m).astype(np.int64)
    return vals[vals <= n_max]


@dataclass(frozen=True)
class PartitionReport:
    n_max: int
    count_alpha: int
    count_alpha_prime: int
    overlaps: np.ndarray
    gaps: np.ndarray

    @property
    def is_partition(self) -> bool:
        return self.overlaps.size == 0 and self.gaps.size == 0


def rayleigh_partition_check(pair: BeattyPair, n_max: int) -> PartitionReport:
    """Materialise both Beatty sequences up to n_max and report overlaps
    and gaps (both empty exactly when the two sequences dissect 1..n_max)."""
    if n_max < 1:
        raise ValueError("n_max >= 1 required")
    a = _beatty_values(pair.alpha, n_max)
    b = _beatty_values(pair.alpha_prime, n_max)
    seen_a = np.zeros(n_max + 1, dtype=bool)
    seen_b = np.zeros(n_max + 1, dtype=bool)
    seen_a[a] = True
    seen_b[b] = True
    overlaps = np.nonzero(seen_a & seen_b)[0]
    gaps = np.nonzero(~(seen_a | seen_b))[0][1:]  # drop index 0
    return PartitionReport(
        n_max=n_max,
        count_alpha=int(a.size),
        count_alpha_prime=int(b.size),
        overlaps=overlaps,
        gaps=gaps,
    )


def _preimage(alpha: float, n: int) -> Optional[int]:
    """m with floor(m alpha) == n, if one exists; candidates near n/alpha."""
    base = int(n / alpha)
    for m in (base, base + 1, base - 1):
        if m >= 1 and beatty_term(alpha, m) == n:
            return m
    return None


def sigma_alpha(pair: BeattyPair, n: int) -> int:
    """The swap permutation: floor(m alpha) <-> floor(m alpha')."""
    if n < 1:
        raise ValueError("n >= 1 required")
    m = _preimage(pair.alpha, n)
    if m is not None:
        return beatty_term(pair.alpha_prime, m)
    m = _preimage(pair.alpha_prime, n)
    if m is not None:
        return beatty_term(pair.alpha, m)
    raise Unclassifiable(
        f"{n} lies in neither Beatty class of alpha = {pair.alpha}; "
        "for irrational alpha this indicates a numerical failure"
    )


@dataclass(frozen=True)
class ExclusionWitness:
    """A quadratic whose root lands within 1e-9 of alpha.

    theta_i is carried as (delta_i, q) with q a reduced positive rational;
    the real value is delta_i * log(q) / (2 pi)."""

    k: tuple[int, int, int, int]
    theta1: tuple[float, Fraction]
    theta2: tuple[float, Fraction]
    roots: tuple[float, ...]
    distance: float

    def theta_values(self) -> tuple[float, float]:
        d1, q1 = self.theta1
        d2, q2 = self.theta2
        return (
            d1 * math.log(q1) / (2.0 * math.pi),
            d2 * math.log(q2) / (2.0 * math.pi),
        )


def _rationals_from_primes(primes: list[int], exponent_bound: int) -> list[Fraction]:
    """All q = prod p^e with |e| <= bound; reduced, positive, deduplicated."""
    ranges = [range(-exponent_bound, exponent_bound + 1) for _ in primes]
    out = set()
    for exps in itertools.product(*ranges):
        q = Fraction(1)
        for p, e in zip(primes, exps):
            q *= Fraction(p) ** e
        out.add(q)
    return sorted(out)


def _quadratic_roots(a: float, b: float, c: float) -> tuple[float, ...]:
    if a == 0.0:
        if b == 0.0:
            return ()
        return (-c / b,)
    disc = b * b - 4.0 * a * c
    if disc < 0.0:
        return ()
    r = math.sqrt(disc)
    return ((-b + r) / (2.0 * a), (-b - r) / (2.0 * a))


def exclusion_scan(
    delta1: float,
    delta2: float,
    alpha: float,
    k_bound: int,
    primes: list[int],
    exponent_bound: int,
    distance_tol: float = 1e-9,
) -> list[ExclusionWitness]:
    """Enumerate integer vectors k in [-k_bound, k_bound]^4 \\ {0} and theta
    pairs built from the prime set, solve
    (k2 + k4 t1) x^2 + (k1 - k2 + k3 - k4 t1 + k4 t2) x - k1 = 0
    and collect witnesses whose root lies within distance_tol of alpha.

    An empty list means alpha passes this finite necessary test; the true
    exclusion set quantifies over all k and all positive rationals."""
    if k_bound < 1 or exponent_bound < 1:
        raise ValueError("k_bound and exponent_bound must be >= 1")
    qs = _rationals_from_primes(primes, exponent_bound)
    thetas1 = [(delta1, q, delta1 * math.log(q) / (2.0 * math.pi)) for q in qs]
    thetas2 = [(delta2, q, delta2 * math.log(q) / (2.0 * math.pi)) for q in qs]
    k_range = range(-k_bound, k_bound + 1)
    witnesses = []
    for (d1, q1, t1), (d2, q2, t2) in itertools.product(thetas1, thetas2):
        if t1 == 0.0 and t2 == 0.0:
            continue  # the pair (0, 0) is excluded from the index set
        for k1, k2, k3, k4 in itertools.product(k_range, repeat=4):
            if k1 == 0 and k2 == 0 and k3 == 0 and k4 == 0:
                continue
            a = k2 + k4 * t1
            b = k1 - k2 + k3 - k4 * t1 + k4 * t2
            c = -float(k1)
            roots = _quadratic_roots(a, b, c)
            if not roots:
                continue
            dist = min(abs(r - alpha) for r in roots)
            if dist < distance_tol:
                witnesses.append(
                    ExclusionWitness(
                        k=(k1, k2, k3, k4),
                        theta1=(d1, q1),
                        theta2=(d2, q2),
                        roots=roots,
                        distance=dist,
                    )
                )
    return witnesses
