"""Weyl sums, the joint Beatty-progression exponential sum and the side
conditions of a shift sequence.

Sums are accumulated in chunks: numpy pairwise summation inside a chunk,
Neumaier compensation across chunks, so runs up to 1e8 terms keep full
double accuracy.  Each sum allocates its chunk buffers once and works in
them in place.  The joint Beatty sum takes its floors from
beatty.beatty_terms: exact for the named pairs at any N, and for a literal
alpha only while N max(alpha, alpha') stays below 2^23.

The joint sum takes no exponential per term.  Its chunks are cut into
tiles of _TILE indices; a term is the tile's one exponential Z_s times an
entry of a table W, built once per call, that the floors' carries inside
the tile select.  Each term is within 4 pi eps M(n) + 24 eps of the exact
term, M(n) the sum of the phase's parts in absolute value (see
joint_beatty_weyl); the float phase of a term-by-term sum has the same
eps M(n) rounding."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .beatty import BeattyPair, beatty_terms
from .errors import AmbiguousFloor, HypothesisViolation

TWO_PI = 2.0 * math.pi
_CHUNK = 1 << 17
_TILE = 1 << 10  # terms per tile of the joint Beatty sum
_MIN_GAP = 0.05  # smallest gap x_{n+1} - x_n a shift sequence may have
_LINEAR_BOUND = 100.0  # largest x_n / n a shift sequence may reach


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
    delta1, delta2; derives u_i = sum w log p / (2 pi)."""

    primes1: dict[int, int]
    primes2: dict[int, int]
    delta1: float
    delta2: float

    def __post_init__(self):
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


def _accumulate_phases(chunk_sum: Callable[[np.ndarray], complex], N: int) -> WeylReport:
    """Sum the terms n = 1..N with power-of-two checkpoints.  chunk_sum(n)
    returns the sum of the terms at the indices n, a float array of
    consecutive integers that the next chunk overwrites.

    The index array is allocated once and reused by every chunk, and so are
    the callers' work arrays, so the sum does not depend on what the heap
    holds."""
    acc = CompensatedSum()
    trajectory = []
    next_checkpoint = 1
    done = 0
    size = min(_CHUNK, N)
    offsets = np.arange(1, size + 1, dtype=np.float64)
    n_buf = np.empty(size)
    while done < N:
        count = min(_CHUNK, next_checkpoint - done, N - done)
        n = np.add(offsets[:count], done, out=n_buf[:count])
        acc.add(complex(chunk_sum(n)))
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
    if freq == 0.0 or not math.isfinite(freq):
        raise ValueError(f"freq must be finite and nonzero, got {freq}")
    z_buf = np.empty(min(_CHUNK, N), dtype=np.complex128)
    return _accumulate_phases(lambda n: _unit_terms(freq * seq(n), z_buf[: n.size]).sum(), N)


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

    Each chunk of indices is cut into tiles of _TILE.  In the tile that
    starts at n_s, n = n_s + j and floor(n a) = floor(n_s a) + floor(j a)
    + c_a with a carry c_a of 0 or 1; likewise c_b for a'.  The term is
    then Z_s W[4 j + 2 c_a + c_b]:

    - Z_s = e(phase(n_s)), one exponential per tile, from the float
      expression above;
    - W holds e(A (floor(j a) + c_a) + B (floor(j a') + c_b)), A = d1 u1,
      B = d2 u2, for j < _TILE and both carries, built once per call.

    So a term costs one integer key, one gather and its share of a row
    sum, and no exponential.  Every carry is checked before its key is
    used; a floor that gives a carry other than 0 or 1 raises
    AmbiguousFloor.

    Error, with the float inputs and the exact floors taken as exact:
    write M(n) = |t1 u1| + |t2 u2| + |A| floor(n a) + |B| floor(n a').
    Z_s carries the rounding of the float phase that a term-by-term sum
    has, at most 2 eps M(n_s) in the argument; W's argument is off by at most
    2 eps (M(n) - M(n_s)); the reductions, the exponentials and the
    product add a few ulp.  Each term is within 4 pi eps M(n) + 24 eps of
    e(phase(n)), and |S|/N within 4 pi eps M(N) + (24 + log2 N) eps of
    its exact value."""
    if N < 1:
        raise ValueError("N >= 1 required")
    for name, value in (("t1", t1), ("t2", t2)):
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")
    u1, u2 = freq.u1, freq.u2
    d1, d2 = freq.delta1, freq.delta2

    # j < width <= N: every j of the table is also an index of the sum, so
    # flooring it raises only where the sum itself would
    width = min(_TILE, N)
    j = np.arange(width, dtype=np.float64)
    floor_ja = beatty_terms(pair.alpha, j)
    floor_jb = beatty_terms(pair.alpha_prime, j)
    carry_a, carry_b = np.array([0.0, 0.0, 1.0, 1.0]), np.array([0.0, 1.0, 0.0, 1.0])
    table_phase = ((d1 * u1) * (floor_ja[:, None] + carry_a)
                   + (d2 * u2) * (floor_jb[:, None] + carry_b))
    table = _unit_terms(table_phase.ravel(), np.empty(4 * width, dtype=np.complex128))
    key_base = 4.0 * j

    size = min(_CHUNK, N)
    tiles = -(-size // width)
    fa, fb, scratch = np.empty(size), np.empty(size), np.empty(size)
    keys = np.empty(size, dtype=np.intp)
    terms = np.empty(size, dtype=np.complex128)
    start_a, start_b = np.empty(tiles), np.empty(tiles)
    rows, z_start = np.empty(tiles, dtype=np.complex128), np.empty(tiles, dtype=np.complex128)

    def tile_sum(n: np.ndarray, lo: int, k: int, w: int) -> complex:
        # the k tiles of w terms from offset lo of the chunk n
        hi = lo + k * w
        a, b = fa[lo:hi].reshape(k, w), fb[lo:hi].reshape(k, w)
        sa, sb = start_a[:k], start_b[:k]
        np.copyto(sa, a[:, 0])
        np.copyto(sb, b[:, 0])
        a -= sa[:, None]
        a -= floor_ja[:w]
        b -= sb[:, None]
        b -= floor_jb[:w]
        # a and b now hold the carries; NaN fails these tests too
        if not (a.min() >= 0.0 and b.min() >= 0.0 and a.max() <= 1.0 and b.max() <= 1.0):
            raise AmbiguousFloor(
                f"floor(n * {pair.alpha}) or floor(n * {pair.alpha_prime}) is not exact for "
                f"some n in [{n[lo]:.0f}, {n[hi - 1]:.0f}]: a tile carry is not 0 or 1"
            )
        a *= 2.0
        a += b
        a += key_base[:w]  # 4 j + 2 c_a + c_b, in range by the check above
        key = keys[lo:hi]
        np.copyto(key, a.ravel(), casting="unsafe")
        # mode="clip" writes straight into out, where "raise" would buffer
        term = np.take(table, key, out=terms[lo:hi], mode="clip").reshape(k, w)
        row = term.sum(axis=1, out=rows[:k])
        # phase(n_s), with the expression and rounding of a term-by-term sum
        sa *= d1
        sa += t1
        sa *= u1
        sb *= d2
        sb += t2
        sb *= u2
        sa += sb
        z = _unit_terms(sa, z_start[:k])
        z *= row
        return complex(z.sum())

    def chunk_sum(n: np.ndarray) -> complex:
        count = n.size
        beatty_terms(pair.alpha, n, out=fa[:count], scratch=scratch[:count])
        beatty_terms(pair.alpha_prime, n, out=fb[:count], scratch=scratch[:count])
        full, rest = divmod(count, width)
        total = tile_sum(n, 0, full, width) if full else 0j
        return total + tile_sum(n, full * width, 1, rest) if rest else total

    return _accumulate_phases(chunk_sum, N)


def validate_shift_sequence(x: np.ndarray) -> None:
    """Check that the shifts are finite and meet the side conditions
    x_n = O(n), gaps bounded below, required by the mean-square
    approximation; refuse violating sequences."""
    x = np.asarray(x, dtype=np.float64)
    bad = np.flatnonzero(~np.isfinite(x))
    if bad.size:
        i = bad[0]
        raise HypothesisViolation(f"shift sequence must be finite, got x_{i + 1} = {x[i]}")
    if x.size >= 2:
        gaps = np.diff(x)
        if gaps.min() <= 0:
            raise HypothesisViolation("shift sequence must be strictly increasing")
        if gaps.min() < _MIN_GAP:
            raise HypothesisViolation(
                f"minimal gap {gaps.min():.3g} below required {_MIN_GAP}"
            )
    n = np.arange(1, x.size + 1)
    growth = (x / n).max()
    if growth > _LINEAR_BOUND:
        raise HypothesisViolation(
            f"x_n / n reaches {growth:.3g}, above the linear bound {_LINEAR_BOUND}"
        )
