"""Discrete universality experiments: disk-hit scans on vertical grids,
joint Beatty-progression hit densities, the swap-permutation variant with
its density transfer bound, and the left-half flip through the functional
equation."""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from . import zeta_core
from .beatty import BeattyPair, beatty_terms, sigma_alpha
from .errors import VanishingTarget


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


@dataclass(frozen=True)
class TargetDisk:
    a: complex
    epsilon: float

    def __post_init__(self):
        if not cmath.isfinite(self.a):
            raise ValueError(f"a must be finite, got {self.a}")
        _require_positive("epsilon", self.epsilon)


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


def disk_hit_lines(grid: VerticalGrid, disk: TargetDisk, N: int) -> list[zeta_core.Line]:
    """The line on which scan_disk_hits, given the same arguments,
    evaluates zeta; refuses what the scan refuses.  Grid point k of shift n
    sits at height Im s + h (n + k - 1), so m = 1 .. N + l - 1 holds every
    needed height once."""
    if N < 1:
        raise ValueError(f"N must be at least 1, got {N}")
    grid.require_strip(0.5, 1.0)
    zeta_core.check_progression(grid.s.real, grid.s.imag, grid.h, N + grid.l - 1)
    return [(grid.s.real, grid.s.imag, grid.h, np.arange(1, N + grid.l))]


def scan_disk_hits(
    grid: VerticalGrid,
    disk: TargetDisk,
    N: int,
) -> tuple[np.ndarray, np.ndarray, HitDensityReport]:
    """All n <= N with |zeta(grid point + i h n) - a| < epsilon for every
    grid point, ascending, the largest such deviation of each, and a
    density report."""
    (line,) = disk_hit_lines(grid, disk, N)
    dev = np.abs(zeta_core.zeta_on_line(*line) - disk.a)
    hit_indices = np.nonzero(_all_of_window(dev < disk.epsilon, N, grid.l))[0] + 1
    # row n - 1 of the window view is dev[n - 1 : n - 1 + l]
    max_dev = np.lib.stride_tricks.sliding_window_view(dev, grid.l)[hit_indices - 1].max(axis=1)
    report = HitDensityReport(
        N=N,
        hits=hit_indices.size,
        density=hit_indices.size / N,
        first_hits=tuple(int(n) for n in hit_indices[:10]),
        params={
            "s": str(grid.s),
            "h": grid.h,
            "l": grid.l,
            "a": str(disk.a),
            "epsilon": disk.epsilon,
        },
    )
    return hit_indices, max_dev, report


def _pair_lines(t1, t2, delta1, delta2, grid_pts, targets, epsilon, N,
                multipliers) -> list[zeta_core.Line]:
    """Refuse a pair scan's parameters, then return its lines: every grid
    point on t1 + delta1 m1, then on t2 + delta2 m2, where (m1, m2) =
    multipliers(n) for n = 1..N."""
    if N < 1:
        raise ValueError(f"N must be at least 1, got {N}")
    if 0 in targets:
        raise VanishingTarget("constant targets must be nonzero")
    for name, value in (("t1", t1), ("t2", t2), ("delta1", delta1), ("delta2", delta2),
                        ("a1", targets[0]), ("a2", targets[1])):
        if not cmath.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")
    _require_positive("epsilon", epsilon)
    m1, m2 = multipliers(np.arange(1, N + 1))
    pts = np.asarray(grid_pts, dtype=np.complex128).ravel()
    progressions = ((t1, delta1, m1), (t2, delta2, m2))
    return [(pt.real, pt.imag + t, d, m) for t, d, m in progressions for pt in pts]


def _pair_hits(lines: list[zeta_core.Line], targets, epsilon: float, N: int) -> np.ndarray:
    """Whether the values of n <= N on every line lie within epsilon of
    the target of their progression (the first half of the lines takes
    targets[0])."""
    ok = np.ones(N, dtype=bool)
    for i, line in enumerate(lines):
        target = complex(targets[2 * i >= len(lines)])
        ok &= np.abs(zeta_core.zeta_on_line(*line) - target) < epsilon
    return ok


def _pair_report(args: tuple, ok: np.ndarray, **extra) -> HitDensityReport:
    """The report of a pair scan on `args`, given which n <= N hit."""
    pair, t1, t2, delta1, delta2, _, (a1, a2), epsilon, _ = args
    idx = np.nonzero(ok)[0] + 1
    return HitDensityReport(
        N=ok.size,
        hits=int(ok.sum()),
        density=float(ok.mean()),
        first_hits=tuple(int(i) for i in idx[:10]),
        params={"alpha": pair.alpha, "t1": t1, "t2": t2, "delta1": delta1, "delta2": delta2,
                "a1": str(a1), "a2": str(a2), "epsilon": epsilon, **extra},
    )


def joint_beatty_lines(
    pair, t1, t2, delta1, delta2, grid_pts, targets, epsilon, N
) -> list[zeta_core.Line]:
    """The lines on which joint_beatty_hits, given the same arguments,
    evaluates zeta, the multipliers floor(n alpha) and floor(n alpha');
    refuses what the scan refuses."""
    def floors(n):
        n = n.astype(np.float64)
        return [beatty_terms(a, n).astype(np.int64) for a in (pair.alpha, pair.alpha_prime)]

    return _pair_lines(t1, t2, delta1, delta2, grid_pts, targets, epsilon, N, floors)


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
    args = (pair, t1, t2, delta1, delta2, grid_pts, targets, epsilon, N)
    ok = _pair_hits(joint_beatty_lines(*args), targets, epsilon, N)
    return _pair_report(args, ok,
                        caveat="alpha membership in the admissible set is only testable "
                               "by the finite exclusion scan")


def sis_lines(
    pair, t1, t2, delta1, delta2, grid_pts, targets, epsilon, N
) -> list[zeta_core.Line]:
    """The lines on which corollary_sis_density, given the same arguments,
    evaluates zeta itself, the multipliers n and sigma_alpha(n); refuses
    what the scan refuses.  The scan adds joint_beatty_hits on the same
    arguments for its transferred bound."""
    return _pair_lines(t1, t2, delta1, delta2, grid_pts, targets, epsilon, N,
                       lambda n: (n, sigma_alpha(pair, n)))


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
    args = (pair, t1, t2, delta1, delta2, grid_pts, targets, epsilon, N)
    ok = _pair_hits(sis_lines(*args), targets, epsilon, N)
    beatty_density = joint_beatty_hits(*args).density
    return _pair_report(args, ok, beatty_line_density=beatty_density,
                        transferred_lower_bound=beatty_density / pair.alpha,
                        sampling_slack=2.0 / math.sqrt(N))


@dataclass(frozen=True)
class FlipReport:
    """The predicted n, split by the sign of their certified margin
    b min |zeta(1 - s)| - r over the grid, and the least b |zeta(1 - s)|
    over the predicted grids (None when nothing is predicted)."""

    N: int
    predicted_hits: tuple[int, ...]
    confirmed_hits: tuple[int, ...]
    disagreements: tuple[int, ...]
    certified_min_modulus: float | None
    params: dict


def _flip_line(grid: VerticalGrid, r: float, c: float, N: int) -> tuple[float, zeta_core.Line]:
    """b >= c, |chi|'s certified bound at every height of the grid, and the
    mirrored line Re s = 1 - sigma over m = 1 .. N + l - 1 as in
    disk_hit_lines; refuses what left_half_flip refuses."""
    if N < 1:
        raise ValueError(f"N must be at least 1, got {N}")
    _require_positive("r", r)
    _require_positive("c", c)
    grid.require_strip(0.0, 0.5)
    b = zeta_core.chi_lower_bound_check(grid.s.real, c, grid.s.imag + grid.h)  # the first height
    zeta_core.check_progression(1.0 - grid.s.real, grid.s.imag, grid.h, N + grid.l - 1)
    return b, (1.0 - grid.s.real, grid.s.imag, grid.h, np.arange(1, N + grid.l))


def flip_lines(grid: VerticalGrid, r: float, c: float, N: int) -> list[zeta_core.Line]:
    """The one line on which left_half_flip, given the same arguments,
    evaluates zeta; refuses what the scan refuses."""
    return [_flip_line(grid, r, c, N)[1]]


def left_half_flip(grid: VerticalGrid, r: float, c: float, N: int) -> FlipReport:
    """Predict the n <= N with |zeta(1 - s - i h (n + k - 1))| >= 2 r / c on
    the whole grid, and confirm |zeta(s + i h (n + k - 1))| > r from
    |zeta(s)| = |chi(s)| |zeta(1 - s)| >= b |zeta(1 - s)|, with b >= c, so
    that a predicted n clears r by at least r.  params' chi_lower_bound is b."""
    b, line = _flip_line(grid, r, c, N)
    # |zeta(1 - s - i t)| = |zeta((1 - Re s) + i t)| by reflection
    mirrored = np.abs(zeta_core.zeta_on_line(*line))
    predicted = np.nonzero(_all_of_window(mirrored >= 2.0 * r / c, N, grid.l))[0] + 1
    certified = b * np.lib.stride_tricks.sliding_window_view(mirrored, grid.l)[predicted - 1].min(axis=1)
    return FlipReport(
        N=N,
        predicted_hits=tuple(int(n) for n in predicted),
        confirmed_hits=tuple(int(n) for n in predicted[certified > r]),
        disagreements=tuple(int(n) for n in predicted[certified <= r]),
        certified_min_modulus=float(certified.min()) if predicted.size else None,
        params={"s": str(grid.s), "h": grid.h, "l": grid.l, "r": r, "c": c, "chi_lower_bound": b},
    )
