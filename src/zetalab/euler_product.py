"""Truncated Euler products on lattice shifts, the discrete mean-square
approximation statistic, the Bergman sup bound on rectangles, and the
empirical two-sample analogue of the discrete limit theorem, whose random
Euler products with unit phases are drawn in blocks.

On the lattice s0 + i h n, n = 1..N, the truncated product over the first
m primes is the exp of

    log zeta_m(s0 + i h n) = sum_p sum_{k <= K_p} p^{-k s0} / k e^{-i n h k log p},

a type-1 nonuniform DFT, summed by zeta_core's NUFFT (_type1) with
sources p^{-k s0}/k at nodes h k log p, the transform that sums zeta's
partial sums on a line.  Each prime's series stops at the first K_p >= 1
whose tail bound p^{-(K_p+1) sigma} / ((K_p+1)(1 - p^{-sigma})),
sigma = Re s0, is at most _LOG_BUDGET / m, so the truncation moves
log zeta_m by at most _LOG_BUDGET = 1e-15.  The transform adds an absolute
error of at most kappa sum_p sum_k p^{-k sigma}/k to log zeta_m; against
the exact transform of the same sources in extended precision, kappa
stayed below 8e-14 for N <= 2000 and 3.4e-13 at N = 1e4 (sigma 0.51 to
0.9, m 1 to 1e4), nearly all of it the rounding of each node onto the FFT
grid, about eps pi |k| of phase at mode k.  The phase of a source also
loses about eps h (n_c + |n - n_c|) k log p about the centre n_c, where a
direct exp per factor loses eps h n log p.  Measured against mpmath at 30
digits, the relative error of the products stays below 8e-13 for shifts
up to 1.2e3 (m = 300) and 6e-12 near 9e3.  The working memory is the FFT
grid, 2 K values for the K >= N modes, and the sources, about 4 per prime
at sigma = 0.9.

The shifts are the lattice x_n = h n, n = 1..N, and validate_shift_sequence
checks the side conditions of the mean-square approximation on the step
alone: h finite and positive, the gap h at least _MIN_GAP when N >= 2 and
the growth x_n / n = h at most _LINEAR_BOUND.

The random model of empirical_limit_theorem forms its factors
1 - w_p p^{-s0}: they are multiplied in runs of floor(690 / b) with
b = -log(1 - 2^{-Re s}), the largest |log| a factor with |w_p| = 1 can
have, so no partial product leaves float range, and one complex log per
run is summed.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import zeta_core
from .errors import HypothesisViolation, PointOnBoundary
from .primes import first_n_primes, is_prime

_LOG_RANGE = 690.0  # largest |log| allowed for a partial product of factors
_LOG_BUDGET = 1e-15  # most that truncating the primes' log series moves log zeta_m
_SAMPLE_BLOCK = 1 << 18  # random factors drawn at once by empirical_limit_theorem
_MIN_GAP = 0.05  # smallest step h of the shifts x_n = h n when N >= 2
_LINEAR_BOUND = 100.0  # largest step h of the shifts x_n = h n


@dataclass(frozen=True)
class TruncationLevel:
    """The first m primes, Miller-Rabin checked: all if m <= 100, else ~100 evenly spaced."""

    m: int
    primes: np.ndarray

    def __post_init__(self):
        if self.m < 1:
            raise ValueError(f"m must be at least 1, got {self.m}")
        if self.primes.size != self.m:
            raise ValueError("prime count does not match m")
        if np.any(np.diff(self.primes) <= 0):
            raise ValueError("primes must be strictly ascending")
        check = self.primes if self.m <= 100 else self.primes[:: max(1, self.m // 100)]
        for p in check:
            if not is_prime(int(p)):
                raise ValueError(f"{p} is not prime")

    @classmethod
    def of(cls, m: int) -> "TruncationLevel":
        return cls(m=m, primes=first_n_primes(m))

    @property
    def log_primes(self) -> np.ndarray:
        return np.log(self.primes.astype(np.float64))


def _log_product(factors: np.ndarray, sigma: float) -> np.ndarray:
    """sum(log(factors)) over the last axis, up to a multiple of 2 pi i, for
    factors 1 - w p^{-s} with |w| = 1 and Re s = sigma > 0.  Such a factor has
    |log| at most b = -log(1 - 2^{-sigma}), so the factors are multiplied in
    runs of floor(690 / b), which keeps every partial product inside float
    range (e^709), and one log is taken per run."""
    m = factors.shape[-1]
    b = -math.log1p(-(2.0 ** -sigma))
    chunk = max(1, int(min(m, _LOG_RANGE / b)))
    cuts = np.arange(0, m, chunk)
    return np.log(np.multiply.reduceat(factors, cuts, axis=-1)).sum(axis=-1)


def euler_sources(level: TruncationLevel, sigma: float) -> tuple[np.ndarray, np.ndarray]:
    """The sources of log zeta_m on a line at Re s = sigma: logs k log p and
    scales 1/k for every prime p of the level and k = 1..K_p, K_p the first
    k >= 1 whose tail bound p^{-(k+1) sigma} / ((k+1)(1 - p^{-sigma})) is at
    most _LOG_BUDGET / m.  At a fixed k the bound falls as p grows, so the
    primes that take a k-th term are a prefix of the level's; the sources
    go k by k, each k over its prefix."""
    if not sigma > 0.5:  # K_p grows like 1 / sigma, without bound as sigma -> 0
        raise ValueError(f"Euler products on lattice shifts need Re s > 1/2, got {sigma}")
    log_p = level.log_primes
    log_geometric = np.log1p(-np.exp(-sigma * log_p))  # log(1 - p^{-sigma})
    log_floor = math.log(_LOG_BUDGET / level.m)
    logs, scales, count = [log_p], [np.ones(level.m)], level.m
    for k in itertools.count(2):
        # the primes whose tail bound after k - 1 terms exceeds the floor,
        # a prefix of those that took a (k - 1)-th term
        bound = -k * sigma * log_p[:count] - math.log(k) - log_geometric[:count]
        count = int(np.count_nonzero(bound > log_floor))
        if count == 0:
            break
        logs.append(k * log_p[:count])
        scales.append(np.full(count, 1.0 / k))
    return np.concatenate(logs), np.concatenate(scales)


def _zeta_m_on_shifts(level: TruncationLevel, s0: complex, h: float, N: int) -> np.ndarray:
    """The truncated product prod (1 - p^{-s})^{-1} over the level's primes at
    s = s0 + i h n, n = 1..N: the exp of one type-1 NUFFT over the sources
    of euler_sources (module docstring)."""
    s0 = complex(s0)
    logs, scales = euler_sources(level, s0.real)
    return np.exp(zeta_core._type1(s0, h, logs, 1, int(N), scales))


@dataclass(frozen=True)
class MeanSquareStat:
    m: int
    N: int
    sigma: float
    value: float
    mode: str  # "pointwise" or "sup-on-K"

    def __post_init__(self):
        if self.value < 0.0:
            raise ValueError("mean-square statistic must be non-negative")


def validate_shift_sequence(h: float, N: int) -> None:
    """Refuse the shifts x_n = h n, n = 1..N, where the step h breaks the
    side conditions of the mean-square approximation (HypothesisViolation):
    h finite and positive, the gap h at least _MIN_GAP when there is a gap
    (N >= 2), and x_n / n = h at most _LINEAR_BOUND."""
    if not 0.0 < h < math.inf:
        raise HypothesisViolation(f"shift step h must be finite and positive, got {h}")
    if N >= 2 and h < _MIN_GAP:
        raise HypothesisViolation(f"minimal gap {h:.3g} below required {_MIN_GAP}")
    if h > _LINEAR_BOUND:
        raise HypothesisViolation(f"x_n / n reaches {h:.3g}, above the linear bound {_LINEAR_BOUND}")


def mean_square_lines(sigma, h, N, grid=None) -> list[zeta_core.Line]:
    """The lines (Re s, t0, h, N) on which mean_square_discrete evaluates
    zeta for the shifts x_n = h n, n = 1..N: one per anchor point.  Refuses
    what the statistic refuses of sigma, h, N and grid, before the N shifts
    are built."""
    if not (0.5 < sigma < 1.0):
        raise ValueError("sigma must lie in (1/2, 1)")
    if N < 1:
        raise ValueError(f"N must be at least 1, got {N}")
    validate_shift_sequence(h, N)
    anchors = np.asarray(grid, dtype=np.complex128) if grid is not None else np.array([sigma + 0j])
    if not np.all(anchors.real > 0.5):
        raise ValueError("grid anchors must have Re s > 1/2")
    for s0 in anchors:
        zeta_core.check_progression(s0.real, s0.imag, h, N)
    return [(s0.real, s0.imag, h, N) for s0 in map(complex, anchors)]


def mean_square_discrete(
    level: TruncationLevel,
    sigma: float,
    shifts: np.ndarray,
    N: int,
    grid: Optional[np.ndarray] = None,
) -> MeanSquareStat:
    """(1/N) sum |zeta(sigma + i x_n) - P(sigma + i x_n)|^2, P the truncated
    product of `level`, or with the sup over a compact grid of anchor
    points when `grid` is given.  The shifts must be x_n = h n with
    h = x_1: zeta comes from the line kernel zeta_core.zeta_on_line
    (mean_square_lines) and P from one NUFFT per line (_zeta_m_on_shifts)."""
    shifts = np.asarray(shifts, dtype=np.float64)[:N]
    h = shifts[0] if shifts.size else math.nan  # no x_1: refused as a step that is not finite
    lines = mean_square_lines(sigma, h, N, grid)
    if shifts.size != N:
        raise ValueError("fewer shifts than N")
    if not np.array_equal(shifts, h * np.arange(1, N + 1)):
        raise HypothesisViolation("shifts must be x_n = h n with h = x_1 > 0")
    dev_sq = np.zeros(N)
    for s0_re, s0_im, h, count in lines:
        exact = zeta_core.zeta_on_line(s0_re, s0_im, h, count)
        truncated = _zeta_m_on_shifts(level, complex(s0_re, s0_im), h, N)
        dev_sq = np.maximum(dev_sq, np.abs(exact - truncated) ** 2)
    mode = "sup-on-K" if grid is not None else "pointwise"
    return MeanSquareStat(m=level.m, N=N, sigma=sigma, value=float(dev_sq.mean()), mode=mode)


@dataclass(frozen=True)
class Rectangle:
    """Axis-aligned closed rectangle [x0, x1] x [y0, y1]."""

    x0: float
    x1: float
    y0: float
    y1: float

    def __post_init__(self):
        if not (self.x0 < self.x1 and self.y0 < self.y1):
            raise ValueError("degenerate rectangle")

    @property
    def area(self) -> float:
        return (self.x1 - self.x0) * (self.y1 - self.y0)

    def boundary_distance(self, z: complex) -> float:
        return min(z.real - self.x0, self.x1 - z.real, z.imag - self.y0, self.y1 - z.imag)

    def grid_shape(self, step: float) -> tuple[int, int]:
        """(nx, ny): the cells of midpoint_grid(step) along x and along y."""
        if not 0.0 < step < math.inf:
            raise ValueError(f"step must be finite and positive, got {step}")
        cells = ((self.x1 - self.x0) / step, (self.y1 - self.y0) / step)
        if not all(map(math.isfinite, cells)):  # a subnormal step overflows
            raise ValueError(f"step {step} gives an infinite number of grid cells")
        nx, ny = (max(1, int(round(c))) for c in cells)
        return nx, ny

    def midpoint_grid(self, step: float) -> np.ndarray:
        return self._midpoints(step, np.arange)

    def corner_midpoints(self, step: float) -> np.ndarray:
        """midpoint_grid(step)'s four extreme points, bit for bit, in its flat order."""
        return self._midpoints(step, lambda n: np.array([0, n - 1])).ravel()

    def _midpoints(self, step: float, pick) -> np.ndarray:
        nx, ny = self.grid_shape(step)
        xs = self.x0 + (pick(nx) + 0.5) * (self.x1 - self.x0) / nx
        ys = self.y0 + (pick(ny) + 0.5) * (self.y1 - self.y0) / ny
        return xs[:, None] + 1j * ys[None, :]


def check_bergman_sup_bound(rect: Rectangle, z: complex) -> None:
    """Refuse what bergman_sup_bound refuses, before any sample is taken."""
    if not rect.boundary_distance(complex(z)) > 0.0:  # NaN too
        raise PointOnBoundary(f"z = {z} is not strictly inside {rect}")


def bergman_sup_bound(f_samples: np.ndarray, rect: Rectangle, z: complex) -> float:
    """Right-hand side of the Bergman pointwise bound
    (sqrt(pi) d(z, boundary))^{-1} (integral |f|^2 dA)^{1/2}
    with the integral done by midpoint quadrature on the sample grid."""
    check_bergman_sup_bound(rect, z)
    d = rect.boundary_distance(complex(z))
    cell = rect.area / f_samples.size
    integral = float((np.abs(f_samples) ** 2).sum() * cell)
    return (math.sqrt(math.pi) * d) ** -1 * math.sqrt(integral)


def ks_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Two-sample Kolmogorov-Smirnov statistic sup |F_a - F_b|."""
    a = np.sort(np.asarray(a, dtype=np.float64))
    b = np.sort(np.asarray(b, dtype=np.float64))
    data = np.concatenate([a, b])
    cdf_a = np.searchsorted(a, data, side="right") / a.size
    cdf_b = np.searchsorted(b, data, side="right") / b.size
    return float(np.abs(cdf_a - cdf_b).max())


@dataclass(frozen=True)
class LimitTheoremReport:
    m: int
    h: float
    s0: complex
    N: int
    trials: int
    seed: int
    ks_re: float
    ks_im: float
    ks_log_abs: float


def check_limit_theorem(level: TruncationLevel, h: float, s0: complex, N: int, trials: int,
                        seed: int) -> None:
    """Refuse what empirical_limit_theorem cannot compute, before it draws
    its sample: its largest phase h N log p_m must be below 2^52, where one
    ulp of it is a whole radian."""
    if not (0.5 < complex(s0).real < 1.0):
        raise ValueError("Re s0 must lie in (1/2, 1)")
    if not 0.0 < h < math.inf:
        raise ValueError(f"h must be finite and positive, got {h}")
    if N < 1:
        raise ValueError(f"N must be at least 1, got {N}")
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    if not h * N * float(level.log_primes[-1]) < 2.0**52:
        raise ValueError(f"h * N * log p_m must be below 2^52, got h = {h}, N = {N}, "
                         f"p_m = {int(level.primes[-1])}")


def empirical_limit_theorem(
    level: TruncationLevel,
    h: float,
    s0: complex,
    N: int,
    trials: int,
    seed: int,
) -> LimitTheoremReport:
    """Compare the truncated products at s0 + i h n, n <= N, against
    `trials` random products prod (1 - omega(p) p^{-s0})^{-1}, each omega(p)
    an independent uniform unit phase, via KS distances of the Re, Im and
    log-modulus marginals."""
    s0 = complex(s0)
    check_limit_theorem(level, h, s0, N, trials, seed)
    shifted = _zeta_m_on_shifts(level, s0, h, N)
    rng = np.random.default_rng(seed)
    powers = np.exp(-s0 * level.log_primes)
    random_sample = np.empty(trials, dtype=np.complex128)
    # rows of _SAMPLE_BLOCK // m trials at a time, drawn in the order that
    # one trials x m draw would take them
    rows = max(1, _SAMPLE_BLOCK // level.m)
    unit = np.empty((min(rows, trials), level.m), dtype=np.complex128)
    for i in range(0, trials, rows):
        angles = rng.uniform(0.0, 2.0 * math.pi, size=(min(rows, trials - i), level.m))
        # exp(i angles) as cos + i sin: the same bits in about 0.7 of the time
        factors = unit[: angles.shape[0]]
        np.cos(angles, out=factors.real)
        np.sin(angles, out=factors.imag)
        factors *= powers
        # Re s0 > 1/2 keeps every |1 - w p^{-s0}| >= 1 - 2^{-1/2} > 0.29
        np.subtract(1.0, factors, out=factors)
        random_sample[i : i + rows] = np.exp(-_log_product(factors, s0.real))
    return LimitTheoremReport(
        m=level.m,
        h=h,
        s0=s0,
        N=N,
        trials=trials,
        seed=seed,
        ks_re=ks_distance(shifted.real, random_sample.real),
        ks_im=ks_distance(shifted.imag, random_sample.imag),
        ks_log_abs=ks_distance(np.log(np.abs(shifted)), np.log(np.abs(random_sample))),
    )
