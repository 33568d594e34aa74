"""Weyl sums and the joint Beatty-progression exponential sum.

Sums are accumulated in chunks: numpy pairwise summation inside a chunk,
and math.fsum, correctly rounded, of the chunk sums at each checkpoint,
so runs up to 1e8 terms keep full double accuracy.  The joint Beatty sum
takes its floors from beatty.beatty_terms: exact for the named pairs at
any N, and for a literal alpha only while N max(alpha, alpha') stays below
2^23.

The joint sum costs O(1) per tile of w = _TILE indices, not per index.  A
tile's terms depend on its start n_s only through the fractions {n_s alpha}
and {n_s alpha'}, which pick one entry of a dominance table of (w + 1)^2
sums (1.06 MB), built once per call.  A call costs O(N / w + w^2) time and
O(N / w) memory, plus an O(N) pass that checks every floor first for a
literal alpha.  A tile whose carries the float fractions do not settle,
within a margin, and each partial tile are summed term by term.  A tile's
sum is within 4 pi eps M(n) + 24 eps per term of its exact value, M(n)
the sum of the phase's parts in absolute value (see joint_beatty_weyl);
the float phase of a term-by-term sum has the same eps M(n) rounding."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .beatty import BeattyPair, beatty_terms, check_floors
from .errors import AmbiguousFloor
from .primes import is_prime

TWO_PI = 2.0 * math.pi
_CHUNK = 1 << 17
_TILE = 1 << 8  # terms per tile of the joint Beatty sum


@dataclass(frozen=True)
class FrequencyVector:
    """Finite prime sets with integer weights, together with the step sizes
    delta1, delta2; derives u_i = sum w log p / (2 pi)."""

    primes1: dict[int, int]
    primes2: dict[int, int]
    delta1: float
    delta2: float

    def __post_init__(self):
        for name, primes in (("primes1", self.primes1), ("primes2", self.primes2)):
            for p in primes:
                try:
                    prime = is_prime(p)
                except ValueError as exc:  # a key beyond the range is_prime decides
                    raise ValueError(f"{exc}: {name} key {p} cannot be checked") from None
                if not prime:
                    raise ValueError(f"{name} key {p} is not a prime")
        if not any(self.primes1.values()) and not any(self.primes2.values()):
            raise ValueError("at least one weight must be nonzero")
        for name, delta in (("delta1", self.delta1), ("delta2", self.delta2)):
            if not 0.0 < delta < math.inf:
                raise ValueError(f"{name} must be finite and positive, got {delta}")

    @property
    def u1(self) -> float:
        """sum k_p log p / (2 pi)."""
        return sum(w * math.log(p) for p, w in self.primes1.items()) / TWO_PI

    @property
    def u2(self) -> float:
        return sum(w * math.log(p) for p, w in self.primes2.items()) / TWO_PI


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


def _accumulate_phases(chunk_sum: Callable[[int, int], complex], N: int) -> WeylReport:
    """Sum the terms n = 1..N with power-of-two checkpoints.
    chunk_sum(lo, count) returns the sum of the terms at the indices
    lo + 1, ..., lo + count; no chunk crosses a checkpoint."""
    sums, trajectory = [], []

    def magnitude(n: int) -> float:  # |S_n| / n, S_n rounded once from the chunk sums
        return abs(complex(math.fsum(z.real for z in sums), math.fsum(z.imag for z in sums))) / n

    next_checkpoint = 1
    done = 0
    while done < N:
        count = min(_CHUNK, next_checkpoint - done, N - done)
        sums.append(complex(chunk_sum(done, count)))
        done += count
        if done == next_checkpoint:
            trajectory.append((done, magnitude(done)))
            next_checkpoint *= 2
    if trajectory[-1][0] != N:
        trajectory.append((N, magnitude(N)))
    return WeylReport(N=N, sum_magnitude=min(trajectory[-1][1], 1.0), trajectory=trajectory)


def check_weyl_sum(freq: float, N: int) -> None:
    """Refuse what weyl_sum refuses, before it sums anything."""
    if N < 1:
        raise ValueError(f"N must be at least 1, got {N}")
    if freq == 0.0 or not math.isfinite(freq):
        raise ValueError(f"freq must be finite and nonzero, got {freq}")


def weyl_sum(seq: Callable[[np.ndarray], np.ndarray], freq: float, N: int) -> WeylReport:
    """(1/N) |sum_{n<=N} exp(2 pi i freq x_n)| with checkpoints at powers of 2.

    `seq` maps an index array to the x_n values."""
    check_weyl_sum(freq, N)
    z_buf = np.empty(min(_CHUNK, N), dtype=np.complex128)

    def chunk_sum(lo: int, count: int) -> complex:
        # one term buffer for every chunk: a fresh 2 MiB one per chunk made
        # the sum of 4e6 terms about 30 % slower (0.092 -> 0.123 s, 2-vCPU Xeon)
        return _unit_terms(freq * seq(np.arange(lo + 1.0, lo + count + 1.0)), z_buf[:count]).sum()

    return _accumulate_phases(chunk_sum, N)


def check_joint_beatty_weyl(pair: BeattyPair, t1: float, t2: float, N: int) -> None:
    """Refuse what joint_beatty_weyl refuses of its own arguments, before it
    sums anything (BeattyPair and FrequencyVector check theirs).  A literal
    alpha's floors are all checked, alpha's and then alpha''s, each in
    index order, so the first product that cannot be floored is named.
    That pass costs O(N); a named pair's floors are exact and skip it."""
    if N < 1:
        raise ValueError(f"N must be at least 1, got {N}")
    for name, value in (("t1", t1), ("t2", t2)):
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")
    for alpha in (pair.alpha, pair.alpha_prime):
        check_floors(alpha, N)


def _carry_margin(top: float) -> float:
    """How near a tile's carry threshold may come to a table fraction before
    the tile is summed term by term, for products up to top.  It bounds the
    error of the float fractions, 2^-53 top + ulp(top) for a named pair,
    and the rounding between fl(n a) and fl(n_s a) + fl(j a), 1.5 ulp(top)
    for a literal alpha, with room left for the rounding of the distance."""
    return 2.0 ** -52 * top + 2.0 * math.ulp(top)


def _checked_floors(alpha: float, m: np.ndarray, slack: float) -> tuple[np.ndarray, np.ndarray]:
    """floor(m alpha) from beatty_terms, and m alpha minus it; AmbiguousFloor
    unless that lies in [-slack, 1 + slack)."""
    floor = beatty_terms(alpha, m)
    frac = m * alpha - floor
    if not np.all((frac >= -slack) & (frac < 1.0 + slack)):  # NaN fails too
        raise AmbiguousFloor(
            f"floor(m * {alpha}) is not exact for some m in [{m[0]:.0f}, {m[-1]:.0f}]: "
            f"m * {alpha} minus it lies outside [0, 1)"
        )
    return floor, frac


def _tree_scan(x: np.ndarray) -> None:
    """x[r] <- x[0] + ... + x[r] along axis 0, in place, for len(x) a
    multiple of 16: a tree inside each block of 16 rows, a tree over the
    block totals, then one addition.  Each sum has depth log2 len(x) + 1,
    so it rounds like a pairwise sum, not like a running one."""
    blocks = x.reshape(-1, 16, *x.shape[1:])
    for rows in (blocks.swapaxes(0, 1), blocks[:, -1]):
        step = 1
        while step < len(rows):
            rows[step:] += rows[:-step]  # numpy reads the overlapping operand as it was
            step *= 2
    blocks[1:, :-1] += blocks[:-1, -1:]


def _dominance_table(alphas: tuple[float, float], A: float, B: float):
    """For tiles of w = _TILE: the fractions {j a} and {j a'}, j < w, each
    ascending and closed by 1, and the (w + 1) x (w + 1) table
    T[r, q] = sum_j W[j, rank_a(j) >= r, rank_b(j) >= q], where
    W[j, c_a, c_b] = e(A (floor(j a) + c_a) + B (floor(j a') + c_b)) and
    rank_a(j) is the place of j in the order of {j a}.

    The carries read these fractions, so they must not wrap: a floor
    whose fraction leaves [0, 1) raises."""
    (floor_a, frac_a), (floor_b, frac_b) = (
        _checked_floors(a, np.arange(_TILE, dtype=np.float64), 0.0) for a in alphas)
    order_a, order_b = np.argsort(frac_a, kind="stable"), np.argsort(frac_b, kind="stable")
    rank_b = np.empty(_TILE, dtype=np.intp)
    rank_b[order_b] = np.arange(_TILE)
    carry = np.array([0.0, 1.0])
    phase = A * (floor_a[order_a] + carry[:, None, None]) + B * (floor_b[order_a] + carry[None, :, None])
    w = _unit_terms(phase, np.empty(phase.shape, dtype=np.complex128))
    # row 1 + i of `lower` holds the j of rank_a i, and row 1 + i of `upper`
    # the j of rank_a w - 1 - i; either carries in a' where q <= rank_b(j)
    carry_b = np.arange(_TILE + 1) <= rank_b[order_a, None]
    lower = np.zeros((_TILE + 1, _TILE + 1), dtype=np.complex128)
    upper = np.zeros((_TILE + 1, _TILE + 1), dtype=np.complex128)
    for half, c_a, rows in ((lower, 0, slice(None)), (upper, 1, slice(None, None, -1))):
        half[1:] = w[c_a, 0, rows, None]
        np.copyto(half[1:], w[c_a, 1, rows, None], where=carry_b[rows])
        _tree_scan(half[1:])
    # lower[r] sums the j of rank_a < r, which do not carry in a, and
    # upper[w - r] the j of rank_a >= r, which do
    lower += upper[::-1]
    return (np.append(frac_a[order_a], 1.0), np.append(frac_b[order_b], 1.0)), lower


def joint_beatty_weyl(
    pair: BeattyPair,
    t1: float,
    t2: float,
    freq: FrequencyVector,
    N: int,
) -> WeylReport:
    """Normalised magnitude of sum_{n<=N} e(phase(n)), e(x) = exp(2 pi i x),
    phase(n) = (t1 + d1 floor(n a)) u1 + (t2 + d2 floor(n a')) u2,
    the exponential sum behind the joint equidistribution statement.

    The indices are cut into tiles of w = _TILE.  In the tile that starts
    at n_s, n = n_s + j and floor(n a) = floor(n_s a) + floor(j a) + c_a,
    where the carry c_a is 1 exactly when {j a} >= 1 - {n_s a}; likewise
    c_b for a'.  So the j that carry in a are a suffix of the j sorted by
    {j a}, and the tile's sum is Z_s T[r_a, r_b]:

    - Z_s = e(phase(n_s)), from the float expression above;
    - r_a = #{j < w : {j a} < 1 - {n_s a}}, one searchsorted of the
      threshold in the sorted fractions {j a}; likewise r_b;
    - T[r, q] = sum_j W[j, rank_a(j) >= r, rank_b(j) >= q], where
      W[j, c_a, c_b] = e(A (floor(j a) + c_a) + B (floor(j a') + c_b)),
      A = d1 u1, B = d2 u2: see _dominance_table, which builds it once per
      call in O(w^2 log w), (w + 1)^2 complex values, 1.06 MB at w = 256.

    A full tile costs O(1), and a call O(N / w + w^2).  The fractions are
    those of the float products, m a minus its floor.  The carries are
    exact unless a threshold 1 - {n_s a} or 1 - {n_s a'} lies within
    _carry_margin(N max(a, a')) of a fraction of the table, 0 and 1
    included.  Such a tile, and each partial tile (the first 256 indices,
    which come in chunks shorter than a tile, and the last tile), is
    summed term by term, one exponential of the float phase per index.
    Every floor the sum reads comes from beatty_terms and raises
    AmbiguousFloor unless m a minus it lies in [0, 1), to within that
    margin (exactly, for the table).

    A literal alpha's floors are all checked before anything is summed
    (check_joint_beatty_weyl).

    Error, with the float inputs and the exact floors taken as exact:
    write M(n) = |t1 u1| + |t2 u2| + |A| floor(n a) + |B| floor(n a').
    Z_s carries the rounding of the float phase
    that a term-by-term sum has, at most 2 eps M(n_s) in the argument;
    W's argument is off by at most 2 eps (M(n) - M(n_s)); the tree sums
    of T (depth 9), the exponentials and the product add a few ulp per
    term.  A tile's sum is within 4 pi eps M(n) + 24 eps per term of its
    exact value, n its last index, and |S|/N within
    4 pi eps M(N) + (24 + log2 N) eps of its exact value."""
    check_joint_beatty_weyl(pair, t1, t2, N)
    alphas = (pair.alpha, pair.alpha_prime)
    u1, u2 = freq.u1, freq.u2
    d1, d2 = freq.delta1, freq.delta2
    margin = _carry_margin(N * max(alphas))

    def terms(m: np.ndarray) -> np.ndarray:
        # e(phase(m)), one exponential of the float phase per index
        (fa, _), (fb, _) = (_checked_floors(alpha, m, margin) for alpha in alphas)
        phase = (t1 + d1 * fa) * u1 + (t2 + d2 * fb) * u2
        return _unit_terms(phase, np.empty(m.size, dtype=np.complex128))

    # the first 256 indices come in chunks shorter than a tile, and after
    # them every chunk starts on a tile boundary; every floor is read and
    # checked before anything is summed
    n_full = max(N // _TILE - 1, 0)  # full tiles after the first 256 indices
    head = terms(np.arange(1.0, (_TILE if n_full else N) + 1.0))
    if not n_full:
        return _accumulate_phases(lambda lo, count: head[lo : lo + count].sum(), N)

    # every j < w is an index of the sum too, so check_joint_beatty_weyl checked a literal alpha's
    sorted_fracs, table = _dominance_table(alphas, d1 * u1, d2 * u2)
    starts = np.arange(1.0, n_full + 1.0) * _TILE + 1.0
    ranks, exact = [], np.ones(n_full, dtype=bool)
    for alpha, fracs in zip(alphas, sorted_fracs):
        x = starts * alpha
        threshold = 1.0 - (x - np.floor(x))
        r = np.searchsorted(fracs, threshold)  # fracs[r - 1] < threshold <= fracs[r]
        exact &= (threshold - fracs[r - 1] > margin) & (fracs[r] - threshold > margin)
        ranks.append(r)
    tile_sums = np.empty(n_full, dtype=np.complex128)
    m = starts[~exact, None] + np.arange(_TILE, dtype=np.float64)  # carries the table does not settle
    tile_sums[~exact] = terms(m.ravel()).reshape(m.shape).sum(axis=1)
    tile_sums[exact] = terms(starts[exact]) * table[ranks[0][exact], ranks[1][exact]]
    tail = terms(np.arange((n_full + 1.0) * _TILE + 1.0, N + 1.0))  # the last, partial tile

    def chunk_sum(lo: int, count: int) -> complex:
        if lo < _TILE:
            return head[lo : lo + count].sum()
        total = tile_sums[lo // _TILE - 1 :][: count // _TILE].sum()
        return total + tail.sum() if lo + count == N else total

    return _accumulate_phases(chunk_sum, N)
