"""Discrete universality experiments: disk-hit scans on vertical grids,
joint Beatty-progression hit densities, the swap-permutation variant with
its density transfer bound, and the left-half flip through the functional
equation."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import zeta_core
from .beatty import BeattyPair, beatty_terms, sigma_alpha
from .errors import ChiBoundUnavailable, DomainOverflow, VanishingTarget


def _require_positive(name: str, value: float) -> None:
    if not 0.0 < value < math.inf:
        raise ValueError(f"{name} must be finite and positive, got {value}")


@dataclass(frozen=True)
class VerticalGrid:
    """Anchor s with step h and l points s + i h (k - 1), k = 1..l."""

    s: complex
    h: float
    l: int

    def __post_init__(self):
        _require_positive("h", self.h)
        if self.l < 1:
            raise ValueError(f"l must be at least 1, got {self.l}")

    def require_strip(self, lo: float, hi: float) -> None:
        if not (lo < self.s.real < hi):
            raise ValueError(f"Re s = {self.s.real} outside ({lo}, {hi})")

    def points(self) -> np.ndarray:
        return self.s + 1j * self.h * np.arange(self.l)


@dataclass(frozen=True)
class TargetDisk:
    a: complex
    epsilon: float

    def __post_init__(self):
        _require_positive("epsilon", self.epsilon)


@dataclass(frozen=True)
class ShiftHit:
    n: int
    deviations: tuple[float, ...]
    max_dev: float


@dataclass(frozen=True)
class HitDensityReport:
    N: int
    hits: int
    density: float
    first_hits: tuple[int, ...]
    params: dict

    def __post_init__(self):
        if not (0.0 <= self.density <= 1.0):
            raise ValueError("density must lie in [0, 1]")


def _all_of_window(flags: np.ndarray, N: int, l: int) -> np.ndarray:
    """For n = 1..N, whether flags[n - 1 .. n + l - 2] all hold."""
    window = np.ones(N, dtype=bool)
    for k in range(l):
        window &= flags[k : k + N]
    return window


def scan_disk_hits(
    grid: VerticalGrid,
    disk: TargetDisk,
    N: int,
) -> tuple[list[ShiftHit], HitDensityReport]:
    """All n <= N with |zeta(grid point + i h n) - a| < epsilon for every
    grid point, plus a density report."""
    if N < 1:
        raise ValueError(f"N must be at least 1, got {N}")
    grid.require_strip(0.5, 1.0)
    t_top = abs(grid.s.imag) + grid.h * (N + grid.l - 1)
    if t_top > zeta_core.T_MAX:
        raise DomainOverflow(
            f"scan reaches t = {t_top}, beyond certified t_max = {zeta_core.T_MAX}"
        )
    # grid point k of shift n sits at height Im s + h (n + k - 1): evaluate
    # every needed height once.
    m = np.arange(1, N + grid.l)
    values = zeta_core.zeta_on_line(grid.s.real, grid.s.imag, grid.h, m)
    dev = np.abs(values - disk.a)
    hit_indices = np.nonzero(_all_of_window(dev < disk.epsilon, N, grid.l))[0] + 1
    # row n - 1 of the window view is dev[n - 1 : n - 1 + l]: one gather and
    # one reduction for all hits, then plain Python floats
    rows = np.lib.stride_tricks.sliding_window_view(dev, grid.l)[hit_indices - 1]
    hits = [
        ShiftHit(n, tuple(devs), max_dev)
        for n, devs, max_dev in zip(hit_indices.tolist(), rows.tolist(), rows.max(axis=1).tolist())
    ]
    report = HitDensityReport(
        N=N,
        hits=len(hits),
        density=len(hits) / N,
        first_hits=tuple(int(n) for n in hit_indices[:10]),
        params={
            "s": str(grid.s),
            "h": grid.h,
            "l": grid.l,
            "a": str(disk.a),
            "epsilon": disk.epsilon,
        },
    )
    return hits, report


def _sup_dev_per_shift(
    grid_pts: np.ndarray,
    t0: float,
    delta: float,
    m: np.ndarray,
    target: complex,
) -> np.ndarray:
    """max over grid points of |zeta(point + i (t0 + delta m)) - target| per
    integer multiplier m."""
    sup = np.zeros(m.size)
    for pt in np.asarray(grid_pts, dtype=np.complex128).ravel():
        vals = zeta_core.zeta_on_line(pt.real, pt.imag + t0, delta, m)
        sup = np.maximum(sup, np.abs(vals - target))
    return sup


def _check_pair_scan(t1, t2, delta1, delta2, targets, epsilon, N) -> None:
    """Refuse a pair scan's parameters before any zeta is evaluated."""
    if N < 1:
        raise ValueError(f"N must be at least 1, got {N}")
    if 0 in targets:
        raise VanishingTarget("constant targets must be nonzero")
    for name, value in (("t1", t1), ("t2", t2), ("delta1", delta1), ("delta2", delta2)):
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")
    _require_positive("epsilon", epsilon)


def joint_beatty_hits(
    pair: BeattyPair,
    t1: float,
    t2: float,
    delta1: float,
    delta2: float,
    grid_pts: np.ndarray,
    targets: tuple[complex, complex],
    epsilon: float,
    N: int,
) -> HitDensityReport:
    """Density of n <= N whose Beatty shifts on both lines approximate the
    constant targets within epsilon over the finite grid."""
    _check_pair_scan(t1, t2, delta1, delta2, targets, epsilon, N)
    a1, a2 = targets
    n = np.arange(1, N + 1, dtype=np.float64)
    fa = beatty_terms(pair.alpha, n).astype(np.int64)
    fb = beatty_terms(pair.alpha_prime, n).astype(np.int64)
    sup1 = _sup_dev_per_shift(grid_pts, t1, delta1, fa, complex(a1))
    sup2 = _sup_dev_per_shift(grid_pts, t2, delta2, fb, complex(a2))
    ok = (sup1 < epsilon) & (sup2 < epsilon)
    idx = np.nonzero(ok)[0] + 1
    return HitDensityReport(
        N=N,
        hits=int(ok.sum()),
        density=float(ok.mean()),
        first_hits=tuple(int(i) for i in idx[:10]),
        params={
            "alpha": pair.alpha,
            "t1": t1,
            "t2": t2,
            "delta1": delta1,
            "delta2": delta2,
            "a1": str(a1),
            "a2": str(a2),
            "epsilon": epsilon,
            "caveat": "alpha membership in the admissible set is only testable "
                      "by the finite exclusion scan",
        },
    )


def corollary_sis_density(
    pair: BeattyPair,
    t1: float,
    t2: float,
    delta1: float,
    delta2: float,
    grid_pts: np.ndarray,
    targets: tuple[complex, complex],
    epsilon: float,
    N: int,
) -> HitDensityReport:
    """Density over n <= N of the progression pair (t1 + d1 n,
    t2 + d2 sigma_alpha(n)); also reports the transferred lower bound
    (1/alpha) * (Beatty-line density) for comparison."""
    _check_pair_scan(t1, t2, delta1, delta2, targets, epsilon, N)
    a1, a2 = targets
    n = np.arange(1, N + 1)
    sup1 = _sup_dev_per_shift(grid_pts, t1, delta1, n, complex(a1))
    sup2 = _sup_dev_per_shift(grid_pts, t2, delta2, sigma_alpha(pair, n), complex(a2))
    ok = (sup1 < epsilon) & (sup2 < epsilon)
    idx = np.nonzero(ok)[0] + 1
    beatty_report = joint_beatty_hits(
        pair, t1, t2, delta1, delta2, grid_pts, targets, epsilon, N
    )
    return HitDensityReport(
        N=N,
        hits=int(ok.sum()),
        density=float(ok.mean()),
        first_hits=tuple(int(i) for i in idx[:10]),
        params={
            "alpha": pair.alpha,
            "t1": t1,
            "t2": t2,
            "delta1": delta1,
            "delta2": delta2,
            "a1": str(a1),
            "a2": str(a2),
            "epsilon": epsilon,
            "beatty_line_density": beatty_report.density,
            "transferred_lower_bound": beatty_report.density / pair.alpha,
            "sampling_slack": 2.0 / math.sqrt(N),
        },
    )


@dataclass(frozen=True)
class FlipReport:
    N: int
    predicted_hits: tuple[int, ...]
    confirmed_hits: tuple[int, ...]
    disagreements: tuple[int, ...]
    params: dict


def left_half_flip(
    grid: VerticalGrid,
    r: float,
    c: float,
    N: int,
    t0: float,
) -> FlipReport:
    """Find n <= N with |zeta(1 - s - i h (n + k - 1))| >= 2 r / c on the
    whole grid, then verify |zeta(s + i h (n + k - 1))| > r by direct
    evaluation; c and its onset t0 must come from a chi lower-bound scan
    for Re s and the scanned t-range."""
    if N < 1:
        raise ValueError(f"N must be at least 1, got {N}")
    _require_positive("r", r)
    _require_positive("c", c)
    grid.require_strip(0.0, 0.5)
    if grid.s.imag < t0:
        raise ChiBoundUnavailable(
            f"scan starts at t = {grid.s.imag}, below certified t0 = {t0}"
        )
    t_top = grid.s.imag + grid.h * (N + grid.l - 1)
    if t_top > zeta_core.T_MAX:
        raise DomainOverflow(f"scan reaches t = {t_top} beyond t_max = {zeta_core.T_MAX}")
    # grid point k of shift n sits at height Im s + h (n + k)
    m = np.arange(1, N + grid.l)
    # |zeta(1 - s - i t)| = |zeta((1 - Re s) + i t)| by reflection
    mirrored = zeta_core.zeta_on_line(1.0 - grid.s.real, grid.s.imag, grid.h, m)
    predicted = np.nonzero(_all_of_window(np.abs(mirrored) >= 2.0 * r / c, N, grid.l))[0] + 1
    # the confirmations run over the whole line too: a NUFFT segment costs
    # about the same for every height as for the predicted ones it spans.
    # Below |t| = 512 this sums the recurrence at unpredicted heights as
    # well, a few ms at most on the strip, and it keeps the dry-run's
    # count of this line exact without knowing the predictions.
    direct = zeta_core.zeta_on_line(grid.s.real, grid.s.imag, grid.h, m)
    ok = _all_of_window(np.abs(direct) > r, N, grid.l)[predicted - 1]
    return FlipReport(
        N=N,
        predicted_hits=tuple(int(n) for n in predicted),
        confirmed_hits=tuple(int(n) for n in predicted[ok]),
        disagreements=tuple(int(n) for n in predicted[~ok]),
        params={
            "s": str(grid.s),
            "h": grid.h,
            "l": grid.l,
            "r": r,
            "c": c,
            "t0": t0,
        },
    )
