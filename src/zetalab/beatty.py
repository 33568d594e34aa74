"""Beatty sequences, the Rayleigh dissection, the swap permutation built
from a conjugate pair, and the finite exclusion scan over the root sets of
the quadratic that encodes rational dependencies of 1, alpha, alpha' and
alpha theta1 + alpha' theta2.

Floors come in two kinds.

- Named pairs.  The named constants and their conjugates are quadratic
  surds (p + sqrt D) / r: golden (1 + sqrt 5) / 2 and (3 + sqrt 5) / 2,
  sqrt 2 and 2 + sqrt 2, sqrt 3 and (3 + sqrt 3) / 2.  A float equal to the
  correctly rounded value of one of them stands for the surd, and its
  floors are exact at every n: floor(n alpha) = (n p + isqrt(D n^2)) // r.
  Array floors take the float product and recompute exactly, with integer
  isqrt, only the products that lie closer to an integer than their
  certified error n |alpha_float - alpha| + ulp(n alpha).
- Literal alphas.  Any other alpha is taken at its float value.  A product
  within FLOOR_GUARD of an integer, and not an exact float integer, raises
  AmbiguousFloor, and so does every product at or beyond LITERAL_RANGE =
  2^23, where ulp(n alpha) exceeds FLOOR_GUARD and the guard certifies
  nothing.

sigma_alpha takes one int (pure Python arithmetic, no numpy) or an int
array (vectorised), and finds the class of n in O(1): m = floor((n+1)/alpha)
Beatty terms of alpha are <= n, and n is one of them iff m > floor(n/alpha).
"""

from __future__ import annotations

import itertools
import math
from math import isqrt
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

import numpy as np

from .errors import AmbiguousFloor, Unclassifiable

FLOOR_GUARD = 1e-9
LITERAL_RANGE = 2.0 ** 23  # ulp(x) > FLOOR_GUARD from here on
_CHUNK = 1 << 17  # multipliers per pass of _beatty_values
_ROOT_TOL = 1e-9  # largest |root - alpha| exclusion_scan counts as a witness

# 30-digit surrogates for the named irrationals (floats carry ~17 digits;
# the literals keep the source of truth explicit).
GOLDEN = float("1.61803398874989484820458683436564")
SQRT2 = float("1.41421356237309504880168872420970")
SQRT3 = float("1.73205080756887729352744634150587")

NAMED_IRRATIONALS = {"golden": GOLDEN, "sqrt2": SQRT2, "sqrt3": SQRT3}


@dataclass(frozen=True)
class Surd:
    """The quadratic irrational (p + sqrt D) / r, D > 0 not a square, r > 0."""

    p: int
    D: int
    r: int
    value: float = field(init=False, compare=False)  # correctly rounded

    def __post_init__(self):
        bits = 120  # sqrt D to 120 fractional bits, then one rounding
        root = math.isqrt(self.D << (2 * bits))
        object.__setattr__(self, "value", float(Fraction((self.p << bits) + root, self.r << bits)))

    def floor(self, n: int) -> int:
        """floor(n (p + sqrt D) / r) for an int n >= 0, exactly."""
        return (n * self.p + math.isqrt(self.D * n * n)) // self.r

    def reciprocal(self) -> "Surd":
        """r / (p + sqrt D) = (-p r + sqrt(D r^2)) / (D - p^2), for p^2 < D."""
        q = self.D - self.p * self.p
        if q <= 0:
            raise ValueError("the reciprocal form needs p^2 < D")
        return Surd(-self.p * self.r, self.D * self.r * self.r, q)


# Each named alpha with its conjugate alpha' = alpha / (alpha - 1).
_NAMED_PAIRS = {
    GOLDEN: (Surd(1, 5, 2), Surd(3, 5, 2)),
    SQRT2: (Surd(0, 2, 1), Surd(2, 2, 1)),
    SQRT3: (Surd(0, 3, 1), Surd(3, 3, 2)),
}
# every float that stands for a surd: the named pairs and 1 / alpha
_SURD_OF = {s.value: s for a, b in _NAMED_PAIRS.values() for s in (a, b, a.reciprocal())}


@dataclass(frozen=True)
class BeattyPair:
    """alpha > 1 with its Rayleigh conjugate alpha' = alpha / (alpha - 1).

    For a named alpha, from_alpha takes alpha' as the correctly rounded
    value of the conjugate surd, and the pair's floors are exact."""

    alpha: float
    alpha_prime: float
    # (1/alpha, alpha, alpha') as surds when both floats stand for surds,
    # and their (p, D, r) flat, for the scalar swap
    surds: Optional[tuple[Surd, Surd, Surd]] = field(init=False, repr=False, compare=False)
    _swap_ints: Optional[tuple[int, ...]] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not (self.alpha > 1.0 and self.alpha_prime > 1.0):
            raise ValueError("both alpha and alpha' must exceed 1")
        if abs(1.0 / self.alpha + 1.0 / self.alpha_prime - 1.0) > 1e-14:
            raise ValueError("1/alpha + 1/alpha' must equal 1")
        named = _NAMED_PAIRS.get(self.alpha)
        exact = ints = None
        if named is not None and named[1].value == self.alpha_prime:
            exact = (named[0].reciprocal(), *named)
            ints = tuple(k for s in exact for k in (s.p, s.D, s.r))
        object.__setattr__(self, "surds", exact)
        object.__setattr__(self, "_swap_ints", ints)

    @classmethod
    def from_alpha(cls, alpha: float) -> "BeattyPair":
        if not 1.0 < alpha < math.inf:  # before alpha / (alpha - 1) divides by zero
            raise ValueError(f"alpha must be finite and exceed 1, got {alpha}")
        named = _NAMED_PAIRS.get(alpha)
        if named is not None:
            return cls(alpha=alpha, alpha_prime=named[1].value)
        return cls(alpha=alpha, alpha_prime=alpha / (alpha - 1.0))


def _ambiguous(m, alpha: float) -> AmbiguousFloor:
    return AmbiguousFloor(f"{m} * {alpha} is within {FLOOR_GUARD} of an integer")


def _beyond_range(what: str) -> AmbiguousFloor:
    return AmbiguousFloor(
        f"{what} is at or beyond 2^23, where the floor guard of a literal alpha certifies nothing"
    )


def beatty_terms(
    alpha: float,
    m: np.ndarray,
    out: Optional[np.ndarray] = None,
    scratch: Optional[np.ndarray] = None,
) -> np.ndarray:
    """floor(m * alpha) for a float array of integer multipliers m >= 0, as
    floats: exact for a named alpha and for 1 / alpha of one (which the
    swap uses); for a literal alpha, a product within FLOOR_GUARD of an
    integer and not an exact float integer, or one at or beyond
    LITERAL_RANGE, cannot be floored reliably and raises AmbiguousFloor.

    `out` receives the floors and `scratch` is a work array, both float64
    arrays of m's shape (allocated when not given), so that a caller going
    through a long sequence chunk by chunk allocates nothing per chunk."""
    surd = _SURD_OF.get(alpha)
    out = np.empty(m.shape) if out is None else out
    if m.size == 0:
        return out
    x = np.multiply(m, alpha, out=np.empty(m.shape) if scratch is None else scratch)
    top = float(x.max())
    if surd is None and top >= LITERAL_RANGE:
        bad = int(m[np.argmax(x >= LITERAL_RANGE)])
        raise _beyond_range(f"{bad} * {alpha}")
    # A surd's product is off by at most m |alpha - surd| + ulp(x) / 2
    # <= 2^-53 x + ulp(x) / 2; the reach doubles both.  A literal's reach
    # doubles the guard, to take in every product the guard looks at.
    reach = 2.0 * FLOOR_GUARD if surd is None else 2.0 ** -52 * top + math.ulp(top)
    np.floor(x, out=out)
    x -= out  # the fraction, exactly
    if x.min() < reach or x.max() > 1.0 - reach:  # rare: settle these products
        near = np.nonzero((x < reach) | (x > 1.0 - reach))[0]
        if surd is not None:
            out[near] = [surd.floor(int(k)) for k in m[near]]
        else:
            x_near = m[near] * alpha
            dist = np.abs(x_near - np.round(x_near))
            bad = (dist != 0.0) & (dist < FLOOR_GUARD)
            if bad.any():
                raise _ambiguous(int(m[near[np.argmax(bad)]]), alpha)
    return out


def _beatty_values(alpha: float, n_max: int) -> np.ndarray:
    """floor(m alpha) for all m with floor(m alpha) <= n_max, vectorised in
    chunks whose work arrays stay in cache."""
    m_top = int(n_max / alpha) + 2
    vals = np.empty(m_top, dtype=np.int64)
    offsets = np.arange(1.0, _CHUNK + 1.0)
    m, out, scratch = np.empty(_CHUNK), np.empty(_CHUNK), np.empty(_CHUNK)
    for start in range(0, m_top, _CHUNK):
        c = min(_CHUNK, m_top - start)
        np.add(offsets[:c], start, out=m[:c])
        vals[start : start + c] = beatty_terms(alpha, m[:c], out[:c], scratch[:c])
    return vals[: np.searchsorted(vals, n_max, side="right")]  # vals ascend


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


def _counts_below(alpha: float, x: np.ndarray) -> np.ndarray:
    """#{k >= 1 : k alpha < x} = ceil(x / alpha) - 1 for a literal alpha;
    a quotient near an integer k is guarded as beatty_terms guards k alpha."""
    q = x / alpha
    nearest = np.round(q)
    close = (q != nearest) & (np.abs(q - nearest) < FLOOR_GUARD / alpha)
    if close.any():
        raise _ambiguous(int(nearest[np.argmax(close)]), alpha)
    return np.ceil(q) - 1.0


def _sigma_array(pair: BeattyPair, n: np.ndarray) -> np.ndarray:
    nf = n.astype(np.float64)
    if pair.surds is not None:
        inverse = pair.surds[0].value
        m = beatty_terms(inverse, nf + 1.0)
        in_a = m > beatty_terms(inverse, nf)
        k = np.where(in_a, m, nf - m)
    else:
        if nf.max() + 1.0 >= LITERAL_RANGE:
            raise _beyond_range(f"n + 1 = {int(nf.max()) + 1}")
        m = _counts_below(pair.alpha, nf + 1.0)
        in_a = m > _counts_below(pair.alpha, nf)
        k = _counts_below(pair.alpha_prime, nf + 1.0)
        in_b = k > _counts_below(pair.alpha_prime, nf)
        if not np.all(in_a | in_b):
            raise Unclassifiable(
                f"{int(n[np.argmin(in_a | in_b)])} lies in neither Beatty class of "
                f"alpha = {pair.alpha}; for irrational alpha this indicates a numerical failure"
            )
        k = np.where(in_a, m, k)
    image = np.empty(n.shape)
    image[in_a] = beatty_terms(pair.alpha_prime, k[in_a])
    image[~in_a] = beatty_terms(pair.alpha, k[~in_a])
    return image.astype(np.int64)


def sigma_alpha(pair: BeattyPair, n):
    """The swap permutation: floor(m alpha) <-> floor(m alpha').

    n is an int, answered with Python int arithmetic alone, or an int
    array, answered with an int64 array.  m = floor((n + 1) / alpha) terms
    of the alpha sequence are <= n, and n is the m-th iff m > floor(n /
    alpha); then sigma(n) = floor(m alpha').  Otherwise n is the (n - m)-th
    term of the alpha' sequence and sigma(n) = floor((n - m) alpha)."""
    if type(n) is not int:
        if isinstance(n, np.ndarray):
            if n.size and n.min() < 1:
                raise ValueError("n >= 1 required")
            return _sigma_array(pair, n)
        n = int(n)  # a numpy integer would overflow below
    if n < 1:
        raise ValueError("n >= 1 required")
    ints = pair._swap_ints
    if ints is None:
        return int(_sigma_array(pair, np.array([n]))[0])
    # Surd.floor written out, as callers map this over single ints by the 1e5
    ip, iD, ir, ap, aD, ar, bp, bD, br = ints
    n1 = n + 1
    m = (n1 * ip + isqrt(iD * n1 * n1)) // ir
    if m > (n * ip + isqrt(iD * n * n)) // ir:
        return (m * bp + isqrt(bD * m * m)) // br
    k = n - m
    return (k * ap + isqrt(aD * k * k)) // ar


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


def exclusion_scan(
    delta1: float,
    delta2: float,
    alpha: float,
    k_bound: int,
    primes: list[int],
    exponent_bound: int,
) -> list[ExclusionWitness]:
    """Enumerate integer vectors k in [-k_bound, k_bound]^4 \\ {0} and theta
    pairs built from the prime set, solve
    (k2 + k4 t1) x^2 + (k1 - k2 + k3 - k4 t1 + k4 t2) x - k1 = 0
    and collect witnesses whose root lies within _ROOT_TOL of alpha.

    An empty list means alpha passes this finite necessary test; the true
    exclusion set quantifies over all k and all positive rationals.

    Each theta pair solves all k at once in numpy, with the floating-point
    operations of the scalar formulas in the same order; witnesses come in
    lexicographic order of k within each theta pair."""
    if k_bound < 1 or exponent_bound < 1:
        raise ValueError("k_bound and exponent_bound must be >= 1")
    qs = _rationals_from_primes(primes, exponent_bound)
    thetas1 = [(delta1, q, delta1 * math.log(q) / (2.0 * math.pi)) for q in qs]
    thetas2 = [(delta2, q, delta2 * math.log(q) / (2.0 * math.pi)) for q in qs]
    ks = np.array(list(itertools.product(range(-k_bound, k_bound + 1), repeat=4)))
    ks = ks[np.any(ks != 0, axis=1)]
    k1, k2, k3, k4 = ks.T
    k123 = k1 - k2 + k3
    c = -k1.astype(np.float64)
    witnesses = []
    for (d1, q1, t1), (d2, q2, t2) in itertools.product(thetas1, thetas2):
        if t1 == 0.0 and t2 == 0.0:
            continue  # the pair (0, 0) is excluded from the index set
        a = k2 + k4 * t1
        b = k123 - k4 * t1 + k4 * t2
        with np.errstate(divide="ignore", invalid="ignore"):
            disc = b * b - 4.0 * a * c
            r = np.sqrt(disc)
            plus, minus = (-b + r) / (2.0 * a), (-b - r) / (2.0 * a)
            line = -c / b  # the root when a == 0
        quadratic = (a != 0.0) & (disc >= 0.0)
        linear = (a == 0.0) & (b != 0.0)
        dist = np.where(quadratic, np.minimum(np.abs(plus - alpha), np.abs(minus - alpha)), np.inf)
        dist = np.where(linear, np.abs(line - alpha), dist)
        for i in np.nonzero(dist < _ROOT_TOL)[0]:
            witnesses.append(
                ExclusionWitness(
                    k=(int(k1[i]), int(k2[i]), int(k3[i]), int(k4[i])),
                    theta1=(d1, q1),
                    theta2=(d2, q2),
                    roots=(float(plus[i]), float(minus[i])) if quadratic[i] else (float(line[i]),),
                    distance=float(dist[i]),
                )
            )
    return witnesses
