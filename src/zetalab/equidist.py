"""Weyl sums, the joint Beatty-progression exponential sum, the exact
triple-integral reference value and one-dimensional star discrepancy.

Sums are accumulated in chunks: numpy pairwise summation inside a chunk,
Neumaier compensation across chunks, so runs up to 1e8 terms keep full
double accuracy.  Each sum allocates its chunk buffers once and works in
them in place.  The joint Beatty sum takes its floors from
beatty.beatty_terms: exact for the named pairs at any N, and for a literal
alpha only while N max(alpha, alpha') stays below 2^23."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .beatty import BeattyPair, beatty_terms
from .errors import HypothesisViolation

TWO_PI = 2.0 * math.pi
_CHUNK = 1 << 17


class CompensatedSum:
    """Neumaier-compensated accumulator for complex partial sums."""

    def __init__(self):
        self._sum = 0.0 + 0.0j
        self._comp = 0.0 + 0.0j

    def add(self, value: complex) -> None:
        s = self._sum
        new_re, comp_re = _neumaier_step(s.real, self._comp.real, value.real)
        new_im, comp_im = _neumaier_step(s.imag, self._comp.imag, value.imag)
        self._sum = complex(new_re, new_im)
        self._comp = complex(comp_re, comp_im)

    @property
    def value(self) -> complex:
        return self._sum + self._comp


def _neumaier_step(s: float, comp: float, x: float) -> tuple[float, float]:
    t = s + x
    if abs(s) >= abs(x):
        comp += (s - t) + x
    else:
        comp += (x - t) + s
    return t, comp


@dataclass(frozen=True)
class FrequencyVector:
    """Finite prime sets with integer weights, together with the step sizes
    delta1, delta2; derives theta_i = delta_i * sum w log p / (2 pi)."""

    primes1: dict[int, int]
    primes2: dict[int, int]
    delta1: float
    delta2: float

    def __post_init__(self):
        if not any(self.primes1.values()) and not any(self.primes2.values()):
            raise ValueError("at least one weight must be nonzero")
        if self.delta1 <= 0 or self.delta2 <= 0:
            raise ValueError("delta1, delta2 must be positive")

    @property
    def u1(self) -> float:
        """sum k_p log p / (2 pi)."""
        return sum(w * math.log(p) for p, w in self.primes1.items()) / TWO_PI

    @property
    def u2(self) -> float:
        return sum(w * math.log(p) for p, w in self.primes2.items()) / TWO_PI

    @property
    def theta1(self) -> float:
        return self.delta1 * self.u1

    @property
    def theta2(self) -> float:
        return self.delta2 * self.u2


@dataclass(frozen=True)
class WeylReport:
    N: int
    sum_magnitude: float  # |S_N| / N
    trajectory: list  # (n, |S_n| / n) at powers of two and at N

    def __post_init__(self):
        if not (0.0 <= self.sum_magnitude <= 1.0 + 1e-12):
            raise ValueError("normalised Weyl sum must lie in [0, 1]")


def _unit_terms(phase: np.ndarray, out: np.ndarray) -> np.ndarray:
    """exp(2 pi i phase) into the complex array out, from the fraction
    phase - floor(phase), which floats give exactly; phase is reduced in
    place.  What remains is the float phase's own rounding, about
    eps |phase| in the argument, which no reduction can undo."""
    phase -= np.floor(phase, out=out.real)
    np.multiply(2j * math.pi, phase, out=out)
    return np.exp(out, out=out)


def _accumulate_phases(phase_fn: Callable[[np.ndarray], np.ndarray], N: int) -> WeylReport:
    """Sum exp(2 pi i phase(n)) for n = 1..N with power-of-two checkpoints;
    phase_fn returns a fresh or scratch array, which _unit_terms reduces.

    The index and exponential arrays are allocated once and reused by every
    chunk, so the sum does not depend on what the heap holds."""
    acc = CompensatedSum()
    trajectory = []
    next_checkpoint = 1
    done = 0
    size = min(_CHUNK, N)
    offsets = np.arange(1, size + 1, dtype=np.float64)
    n_buf = np.empty(size)
    z_buf = np.empty(size, dtype=np.complex128)
    while done < N:
        count = min(_CHUNK, next_checkpoint - done, N - done)
        n = np.add(offsets[:count], done, out=n_buf[:count])
        chunk_sum = complex(_unit_terms(phase_fn(n), z_buf[:count]).sum())
        acc.add(chunk_sum)
        done += count
        if done == next_checkpoint:
            trajectory.append((done, abs(acc.value) / done))
            next_checkpoint *= 2
    if not trajectory or trajectory[-1][0] != N:
        trajectory.append((N, abs(acc.value) / N))
    return WeylReport(N=N, sum_magnitude=min(abs(acc.value) / N, 1.0), trajectory=trajectory)


def weyl_sum(seq: Callable[[np.ndarray], np.ndarray], freq: float, N: int) -> WeylReport:
    """(1/N) |sum_{n<=N} exp(2 pi i freq x_n)| with checkpoints at powers of 2.

    `seq` maps an index array to the x_n values."""
    if N < 1:
        raise ValueError("N >= 1 required")
    if freq == 0.0:
        raise ValueError("freq must be nonzero")
    return _accumulate_phases(lambda n: freq * seq(n), N)


def joint_beatty_weyl(
    pair: BeattyPair,
    t1: float,
    t2: float,
    freq: FrequencyVector,
    N: int,
) -> WeylReport:
    """Normalised magnitude of
    sum exp[2 pi i ((t1 + d1 floor(n a)) u1 + (t2 + d2 floor(n a')) u2)],
    the exponential sum behind the joint equidistribution statement."""
    if N < 1:
        raise ValueError("N >= 1 required")
    u1, u2 = freq.u1, freq.u2
    d1, d2 = freq.delta1, freq.delta2

    size = min(_CHUNK, N)
    fa, fb, scratch = np.empty(size), np.empty(size), np.empty(size)

    def phase(n: np.ndarray) -> np.ndarray:
        # (t1 + d1 floor(n a)) u1 + (t2 + d2 floor(n a')) u2, in place
        a = beatty_terms(pair.alpha, n, out=fa[: n.size], scratch=scratch[: n.size])
        b = beatty_terms(pair.alpha_prime, n, out=fb[: n.size], scratch=scratch[: n.size])
        a *= d1
        a += t1
        a *= u1
        b *= d2
        b += t2
        b *= u2
        a += b
        return a

    return _accumulate_phases(phase, N)


def triple_integral_reference(nodes: int = 10_000) -> complex:
    """The reference value 0 of the factored triple integral; the first
    factor integrates exp(2 pi i x) over a full period.  A midpoint
    quadrature self-check keeps the constant honest."""
    x = (np.arange(nodes) + 0.5) / nodes
    quad = complex(np.exp(2j * math.pi * x).sum()) / nodes
    if abs(quad) >= 1e-12:
        raise ArithmeticError(f"full-period quadrature self-check failed: {abs(quad)}")
    return 0.0 + 0.0j


def star_discrepancy_estimate(points: Sequence[float]) -> float:
    """Exact 1-D star discrepancy of the fractional parts via the sorted
    formula D*_N = max_i max(i/N - x_(i), x_(i) - (i-1)/N)."""
    pts = np.mod(np.asarray(points, dtype=np.float64), 1.0)
    if pts.size == 0:
        raise ValueError("nonempty point list required")
    pts.sort()
    n = pts.size
    i = np.arange(1, n + 1)
    return float(np.maximum(i / n - pts, pts - (i - 1) / n).max())


def validate_shift_sequence(
    x: np.ndarray,
    min_gap: float = 0.05,
    linear_bound: float = 100.0,
    allow_irregular: bool = False,
) -> None:
    """Check the side conditions x_n = O(n), gaps bounded below, required
    by the mean-square approximation; refuse violating sequences unless
    explicitly overridden."""
    x = np.asarray(x, dtype=np.float64)
    if allow_irregular:
        return
    if x.size >= 2:
        gaps = np.diff(x)
        if gaps.min() <= 0:
            raise HypothesisViolation("shift sequence must be strictly increasing")
        if gaps.min() < min_gap:
            raise HypothesisViolation(
                f"minimal gap {gaps.min():.3g} below required {min_gap}"
            )
    n = np.arange(1, x.size + 1)
    growth = (x / n).max()
    if growth > linear_bound:
        raise HypothesisViolation(
            f"x_n / n reaches {growth:.3g}, above the linear bound {linear_bound}"
        )
