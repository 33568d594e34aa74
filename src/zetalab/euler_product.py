"""Truncated Euler products on shifts, the discrete mean-square
approximation statistic, the Bergman sup bound on rectangles, and the
empirical two-sample analogue of the discrete limit theorem, whose random
Euler products with unit phases are drawn in blocks.

A product prod (1 - w_p p^{-s})^{-1} over the first m primes is taken in
chunks: the factors are multiplied in runs of floor(690 / b) with
b = -log(1 - 2^{-Re s}), the largest |log| a factor with |w_p| = 1 can
have, so no partial product leaves float range, and one complex log per
run is summed (each factor is its own run for Re s <= 0).  On a sequence
of shifts x_n the powers p^{-(s0 + i x_n)} come from zeta_core's
power-row recurrence: an exact row every 64 shifts and one complex
multiply per factor between them when the shifts are equally spaced.
Measured against mpmath at 30 digits, the relative error of the products
on shifts stays below 2e-13 for shifts up to 1.2e3 and 3e-12 near 9e3, the
same as a direct exp per factor: the phase of p^{-i x} loses about
eps x log p either way.  The working memory of a shifted product is
bounded by zeta_core's column slices (4e6 values), whatever N and m are.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import zeta_core
from .equidist import validate_shift_sequence
from .errors import HypothesisViolation, PointOnBoundary
from .primes import first_n_primes, is_prime

_LOG_RANGE = 690.0  # largest |log| allowed for a partial product of factors
_SAMPLE_BLOCK = 1 << 18  # random factors drawn at once by empirical_limit_theorem


@dataclass(frozen=True)
class TruncationLevel:
    """The first m primes, trial-division verified."""

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
    factors 1 - w p^{-s} with |w| = 1 and Re s = sigma.  Such a factor has
    |log| at most b = -log(1 - 2^{-sigma}), so the factors are multiplied in
    runs of floor(690 / b), which keeps every partial product inside float
    range (e^709), and one log is taken per run (per factor if sigma <= 0)."""
    m = factors.shape[-1]
    b = -math.log1p(-(2.0 ** -sigma)) if sigma > 0.0 else math.inf  # 0 if 2^{-sigma} underflows
    chunk = max(1, m if b == 0.0 else int(min(m, _LOG_RANGE / b)))
    cuts = np.arange(0, m, chunk)
    return np.log(np.multiply.reduceat(factors, cuts, axis=-1)).sum(axis=-1)


def _zeta_m_on_shifts(level: TruncationLevel, s0: complex, shifts: np.ndarray) -> np.ndarray:
    """The truncated product prod (1 - p^{-(s0 + i x)})^{-1} over the
    level's primes, for an array of real shifts x.  The rows p^{-(s0 + i x)}
    come from the power-row recurrence of zeta_core, one complex multiply
    per factor when the shifts are equally spaced."""
    s0 = complex(s0)
    points = s0 + 1j * np.asarray(shifts, dtype=np.float64)
    log_sum = np.zeros(points.size, dtype=np.complex128)
    for at, rows in zeta_core._power_rows(points, level.log_primes):
        log_sum[at] += _log_product(1.0 - rows, s0.real)
    return np.exp(-log_sum)


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


def mean_square_lines(level, sigma, shifts, N, grid=None) -> list[zeta_core.Line]:
    """The lines (Re s, t0, h, m) on which mean_square_discrete, given the
    same arguments, evaluates zeta: one per anchor point, m = 1..N.
    Refuses what the statistic refuses, and shifts other than x_n = h n
    with h = x_1 > 0 (HypothesisViolation)."""
    if not (0.5 < sigma < 1.0):
        raise ValueError("sigma must lie in (1/2, 1)")
    if N < 1:
        raise ValueError(f"N must be at least 1, got {N}")
    shifts = np.asarray(shifts, dtype=np.float64)[:N]
    if shifts.size != N:
        raise ValueError("fewer shifts than N")
    validate_shift_sequence(shifts)
    h, m = shifts[0], np.arange(1, N + 1)
    if not (h > 0.0 and np.array_equal(shifts, h * m)):
        raise HypothesisViolation("shifts must be x_n = h n with h = x_1 > 0")
    anchors = np.asarray(grid, dtype=np.complex128) if grid is not None else np.array([sigma + 0j])
    return [(s0.real, s0.imag, h, m) for s0 in map(complex, anchors)]


def mean_square_discrete(
    level: TruncationLevel,
    sigma: float,
    shifts: np.ndarray,
    N: int,
    grid: Optional[np.ndarray] = None,
) -> MeanSquareStat:
    """(1/N) sum |zeta(sigma + i x_n) - P(sigma + i x_n)|^2, P the truncated
    product of `level`, or with the sup over a compact grid of anchor
    points when `grid` is given.  The shifts must be x_n = h n, h > 0: zeta
    comes from the line kernel zeta_core.zeta_on_line (mean_square_lines)."""
    lines = mean_square_lines(level, sigma, shifts, N, grid)
    dev_sq = np.zeros(N)
    for s0_re, s0_im, h, m in lines:
        exact = zeta_core.zeta_on_line(s0_re, s0_im, h, m)
        truncated = _zeta_m_on_shifts(level, complex(s0_re, s0_im), h * m)
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
        nx, ny = self.grid_shape(step)
        xs = self.x0 + (np.arange(nx) + 0.5) * (self.x1 - self.x0) / nx
        ys = self.y0 + (np.arange(ny) + 0.5) * (self.y1 - self.y0) / ny
        return xs[:, None] + 1j * ys[None, :]


def bergman_sup_bound(f_samples: np.ndarray, rect: Rectangle, z: complex) -> float:
    """Right-hand side of the Bergman pointwise bound
    (sqrt(pi) d(z, boundary))^{-1} (integral |f|^2 dA)^{1/2}
    with the integral done by midpoint quadrature on the sample grid."""
    d = rect.boundary_distance(complex(z))
    if not d > 0.0:  # NaN too
        raise PointOnBoundary(f"z = {z} is not strictly inside {rect}")
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


def check_limit_theorem(h: float, s0: complex, N: int, trials: int) -> None:
    """Refuse what empirical_limit_theorem refuses, before it draws its
    sample."""
    if not (0.5 < complex(s0).real < 1.0):
        raise ValueError("Re s0 must lie in (1/2, 1)")
    if not 0.0 < h < math.inf:
        raise ValueError(f"h must be finite and positive, got {h}")
    if N < 1:
        raise ValueError(f"N must be at least 1, got {N}")
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")


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
    check_limit_theorem(h, s0, N, trials)
    shifts = h * np.arange(1, N + 1, dtype=np.float64)
    shifted = _zeta_m_on_shifts(level, s0, shifts)
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
