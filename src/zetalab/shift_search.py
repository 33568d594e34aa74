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


def disk_hit_lines(grid: VerticalGrid, disk: TargetDisk, N: int) -> list[zeta_core.Line]:
    """The line on which scan_disk_hits, given the same arguments,
    evaluates zeta; refuses what the scan refuses.  Grid point k of shift n
    sits at height Im s + h (n + k - 1), so m = 1 .. N + l - 1 holds every
    needed height once."""
    if N < 1:
        raise ValueError(f"N must be at least 1, got {N}")
    grid.require_strip(0.5, 1.0)
    t_top = abs(grid.s.imag) + grid.h * (N + grid.l - 1)
    if t_top > zeta_core.T_MAX:
        raise DomainOverflow(
            f"scan reaches t = {t_top}, beyond certified t_max = {zeta_core.T_MAX}")
    return [(grid.s.real, grid.s.imag, grid.h, np.arange(1, N + grid.l))]


def scan_disk_hits(
    grid: VerticalGrid,
    disk: TargetDisk,
    N: int,
) -> tuple[list[ShiftHit], HitDensityReport]:
    """All n <= N with |zeta(grid point + i h n) - a| < epsilon for every
    grid point, plus a density report."""
    (line,) = disk_hit_lines(grid, disk, N)
    dev = np.abs(zeta_core.zeta_on_line(*line) - disk.a)
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


def _pair_lines(t1, t2, delta1, delta2, grid_pts, targets, epsilon, N,
                multipliers) -> list[zeta_core.Line]:
    """Refuse a pair scan's parameters, then return its lines: every grid
    point on t1 + delta1 m1, then on t2 + delta2 m2, where (m1, m2) =
    multipliers(n) for n = 1..N."""
    if N < 1:
        raise ValueError(f"N must be at least 1, got {N}")
    if 0 in targets:
        raise VanishingTarget("constant targets must be nonzero")
    for name, value in (("t1", t1), ("t2", t2), ("delta1", delta1), ("delta2", delta2)):
        if not math.isfinite(value):
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
    N: int
    predicted_hits: tuple[int, ...]
    confirmed_hits: tuple[int, ...]
    disagreements: tuple[int, ...]
    params: dict


def flip_lines(grid: VerticalGrid, r: float, c: float, N: int, t0: float) -> list[zeta_core.Line]:
    """The lines on which left_half_flip, given the same arguments,
    evaluates zeta: the mirrored line Re s = 1 - sigma, then the direct
    one, each over m = 1 .. N + l - 1 as in disk_hit_lines; refuses what
    the scan refuses."""
    if N < 1:
        raise ValueError(f"N must be at least 1, got {N}")
    _require_positive("r", r)
    _require_positive("c", c)
    grid.require_strip(0.0, 0.5)
    if grid.s.imag < t0:
        raise ChiBoundUnavailable(f"scan starts at t = {grid.s.imag}, below certified t0 = {t0}")
    t_top = grid.s.imag + grid.h * (N + grid.l - 1)
    if t_top > zeta_core.T_MAX:
        raise DomainOverflow(f"scan reaches t = {t_top} beyond t_max = {zeta_core.T_MAX}")
    m = np.arange(1, N + grid.l)
    return [(1.0 - grid.s.real, grid.s.imag, grid.h, m), (grid.s.real, grid.s.imag, grid.h, m)]


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
    mirror_line, direct_line = flip_lines(grid, r, c, N, t0)
    # |zeta(1 - s - i t)| = |zeta((1 - Re s) + i t)| by reflection
    mirrored = zeta_core.zeta_on_line(*mirror_line)
    predicted = np.nonzero(_all_of_window(np.abs(mirrored) >= 2.0 * r / c, N, grid.l))[0] + 1
    # the confirmations run over the whole line too: a NUFFT segment costs
    # about the same for every height as for the predicted ones it spans.
    # Below |t| = 512 this sums the recurrence at unpredicted heights as
    # well, a few ms at most on the strip, and it keeps the dry-run's
    # count of this line exact without knowing the predictions.
    direct = zeta_core.zeta_on_line(*direct_line)
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
