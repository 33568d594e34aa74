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
from .beatty import _CHUNK, BeattyPair, beatty_terms, check_floors, sigma_alpha
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


def _window(fold, values: np.ndarray, l: int) -> np.ndarray:
    """For n = 1..N, N = values.size - l + 1, the extreme of
    values[n - 1 .. n + l - 2] that fold (np.maximum or np.minimum) picks."""
    N = values.size - l + 1
    out = values[:N].copy()
    for k in range(1, l):
        fold(out, values[k : k + N], out=out)
    return out


def disk_hit_lines(grid: VerticalGrid, disk: TargetDisk, N: int) -> list[zeta_core.Line]:
    """The line on which scan_disk_hits, given the same arguments,
    evaluates zeta; refuses what the scan refuses.  Grid point k of shift n
    sits at height Im s + h (n + k - 1), so m = 1 .. N + l - 1 holds every
    needed height once."""
    if N < 1:
        raise ValueError(f"N must be at least 1, got {N}")
    grid.require_strip(0.5, 1.0)
    return [(grid.s.real, grid.s.imag, grid.h, N + grid.l - 1)]


def scan_disk_hits(
    grid: VerticalGrid,
    disk: TargetDisk,
    N: int,
) -> tuple[np.ndarray, np.ndarray, HitDensityReport]:
    """All n <= N with |zeta(grid point + i h n) - a| < epsilon for every
    grid point, ascending, the largest such deviation of each, and a
    density report."""
    (line,) = disk_hit_lines(grid, disk, N)
    worst = _window(np.maximum, np.abs(zeta_core.zeta_on_line(*line) - disk.a), grid.l)
    hit = worst < disk.epsilon
    hit_indices, max_dev = np.nonzero(hit)[0] + 1, worst[hit]
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


def _beatty_multipliers(pair: BeattyPair, n: np.ndarray) -> list[np.ndarray]:
    """floor(n alpha) and floor(n alpha') for an int array n."""
    n = n.astype(np.float64)
    return [beatty_terms(a, n).astype(np.int64) for a in (pair.alpha, pair.alpha_prime)]


def _swap_multipliers(pair: BeattyPair, n: np.ndarray) -> list[np.ndarray]:
    """n and sigma_alpha(n) for an int array n."""
    return [n, sigma_alpha(pair, n)]


def _pair_lines(args: tuple, *multipliers) -> list[zeta_core.Line]:
    """Refuse the pair scan on `args`, then return its lines: every grid
    point on t1 + delta1 m, then on t2 + delta2 m, m = 1 .. the largest
    multiplier that any map f in multipliers, f(pair, n), gives the
    progression for n <= N.  Each multiplier rises on each Beatty class,
    whose members lie at most ceil(max(alpha, alpha')) apart, so its
    largest is the largest over the ceil(max(alpha, alpha')) + 1 integers
    that end at N.  A literal pair's floors of alpha, then of alpha', and
    then its swap if a map reads it, are first checked over n = 1 .. N in
    ascending order, so that a refusal names the first n that cannot be
    read, as beatty does.  The lines are checked here, as the scan builds
    the N multipliers after this call."""
    pair, t1, t2, delta1, delta2, grid_pts, targets, epsilon, N = args
    if N < 1:
        raise ValueError(f"N must be at least 1, got {N}")
    if 0 in targets:
        raise VanishingTarget("constant targets must be nonzero")
    for name, value in (("t1", t1), ("t2", t2), ("a1", targets[0]), ("a2", targets[1])):
        if not cmath.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")
    for name, value in (("delta1", delta1), ("delta2", delta2), ("epsilon", epsilon)):
        _require_positive(name, value)
    for a in (pair.alpha, pair.alpha_prime):
        check_floors(a, N)
    if pair.surds is None and _swap_multipliers in multipliers:
        for start in range(0, N, _CHUNK):
            sigma_alpha(pair, np.arange(start + 1, min(start + _CHUNK, N) + 1))
    last = np.arange(max(1, N - math.ceil(max(pair.alpha, pair.alpha_prime))), N + 1)
    reads = [f(pair, last) for f in multipliers]
    tops = [max(int(ms[j].max()) for ms in reads) for j in (0, 1)]
    pts = np.asarray(grid_pts, dtype=np.complex128).ravel()
    lines = [(pt.real, pt.imag + t, d, top)
             for t, d, top in ((t1, delta1, tops[0]), (t2, delta2, tops[1])) for pt in pts]
    for line in lines:
        zeta_core.check_progression(*line)
    return lines


def _pair_hits(args: tuple, *multipliers) -> list[np.ndarray]:
    """For each map of multipliers, whether each n <= N of the pair scan on
    `args` hits: the values of every line, read at the map's multipliers,
    lie within epsilon of the target of their progression (the first half
    of the lines takes targets[0]).  Each line is evaluated once and read
    by every map."""
    pair, *_, targets, epsilon, N = args
    lines = _pair_lines(args, *multipliers)
    n = np.arange(1, N + 1)
    reads = [f(pair, n) for f in multipliers]
    hits = [np.ones(N, dtype=bool) for _ in multipliers]
    for i, line in enumerate(lines):
        second = 2 * i >= len(lines)
        values = zeta_core.zeta_on_line(*line)
        for ok, ms in zip(hits, reads):
            ok &= np.abs(values[ms[second] - 1] - targets[second]) < epsilon
    return hits


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
    evaluates zeta, up to floor(N alpha) and floor(N alpha'); refuses what
    the scan refuses."""
    return _pair_lines((pair, t1, t2, delta1, delta2, grid_pts, targets, epsilon, N),
                       _beatty_multipliers)


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
    constant targets within epsilon over the finite grid, read at
    floor(n alpha) and floor(n alpha') on the lines of joint_beatty_lines."""
    args = (pair, t1, t2, delta1, delta2, grid_pts, targets, epsilon, N)
    (ok,) = _pair_hits(args, _beatty_multipliers)
    return _pair_report(args, ok,
                        caveat="alpha membership in the admissible set is only testable "
                               "by the finite exclusion scan")


def sis_lines(
    pair, t1, t2, delta1, delta2, grid_pts, targets, epsilon, N
) -> list[zeta_core.Line]:
    """The lines on which corollary_sis_density, given the same arguments,
    evaluates zeta; refuses what the scan refuses.  The scan reads the
    lines at n and sigma_alpha(n), and at floor(n alpha) and
    floor(n alpha'), so they end at the largest multiplier either map
    reads: floor(N alpha) on t1 + delta1 m, and on t2 + delta2 m the larger
    of floor(N alpha') and the largest sigma_alpha(n), n <= N."""
    return _pair_lines((pair, t1, t2, delta1, delta2, grid_pts, targets, epsilon, N),
                       _swap_multipliers, _beatty_multipliers)


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
    (1/alpha) * (Beatty-line density) for comparison.  Each line of
    sis_lines is evaluated once and read at n and sigma_alpha(n) for the
    density, and at floor(n alpha) and floor(n alpha') for the Beatty-line
    density, which is joint_beatty_hits' density on the same arguments."""
    args = (pair, t1, t2, delta1, delta2, grid_pts, targets, epsilon, N)
    ok, beatty_ok = _pair_hits(args, _swap_multipliers, _beatty_multipliers)
    beatty_density = float(beatty_ok.mean())
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
    return b, (1.0 - grid.s.real, grid.s.imag, grid.h, N + grid.l - 1)


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
    least = _window(np.minimum, np.abs(zeta_core.zeta_on_line(*line)), grid.l)
    keep = least >= 2.0 * r / c
    predicted, certified = np.nonzero(keep)[0] + 1, b * least[keep]
    return FlipReport(
        N=N,
        predicted_hits=tuple(int(n) for n in predicted),
        confirmed_hits=tuple(int(n) for n in predicted[certified > r]),
        disagreements=tuple(int(n) for n in predicted[certified <= r]),
        certified_min_modulus=float(certified.min()) if predicted.size else None,
        params={"s": str(grid.s), "h": grid.h, "l": grid.l, "r": r, "c": c, "chi_lower_bound": b},
    )
