"""Error-controlled double-precision evaluation of zeta, log-gamma, chi,
theta and Hardy's Z on a strip around the critical line.

zeta uses Euler-Maclaurin summation with K Bernoulli corrections, K = 16
(B_2 ... B_32) except on product grids (below).  The term count N is the
smallest N >= 20 for which Backlund's bound on the remainder,
|R| <= |s + 2K + 1| / (Re s + 2K + 1) |T_{K+1}(N)|, is below 1e-13
(_em_term_count): about 0.4|t| on and right of the critical line and
0.6|t| at Re s = -0.9.  The corrections follow from N^{-s} by the ratio of
consecutive terms, one exp per point.  The scalar `zeta` sums the N powers
n^{-s} directly; `zeta_grid` reaches them by a recurrence along the points
that restarts exactly every 64 points; the same power rows give the Euler
products of euler_product.  Both kernels lose about eps |t| log n of phase
in the term n^{-s}, so the error grows with |t|, and left of the critical
line with the size of the terms.  Measured against mpmath at 30 digits, the
error relative to max(1, |zeta|) stays below

    Re s          |t| <= 1e4   |t| <= 3e4
    [1, 40]       5e-12        2e-11
    [1/2, 1)      5e-11        2e-10
    [0, 1/2)      1e-10        5e-10
    (-1, 0)       1.5e-10      8e-10

for both kernels; the largest values measured are 1.9e-12 / 6.0e-12,
1.8e-11 / 9.0e-11, 3.5e-11 / 1.7e-10 and 4.2e-11 / 2.5e-10.  The
absolute error is this times |zeta|, which grows like |t|^(1/2 - Re s)
left of the line: at Re s = -0.99, t = 1e4 it is about 3e-6.
chi is assembled in log space so that nothing overflows at t ~ 1e4.

The table certifies the strip SIGMA_MIN <= Re s <= SIGMA_MAX,
|Im s| <= T_MAX, and nothing else: zeta, zeta_grid, zeta_on_line and chi
raise OutOfDomain for any point outside it, and PoleAt1 (not chi) for a
point within POLE_GUARD of s = 1.  Widening the strip means measuring the
table's columns out to the new edge first.

A product grid, a 2-D array whose Re s depends only on the row and Im s
only on the column (Rectangle.midpoint_grid builds one), with at least 64
rows and 64 columns, takes a third path in zeta_grid.  Any other array
runs the recurrence.  As n^{-s} =
n^{-x_i} n^{-i y_j}, the partial sums of a tile are one real matrix
product: the exps n^{-x_i} times the real and imaginary parts of the exps
n^{-i y_j}.  Each factor is one exact exp, and with 64 points a side a
point costs at most twice the exps it costs in the recurrence.  A tile
holds at most _BLOCK_ELEMS factors on each side and _GRID_BLOCK points,
so the memory beyond the output is bounded and the tail's temporaries stay
in cache.  N^{-s} is the outer product of the two last factors.  The path
chooses K with N: of the pairs that meet Backlund's bound it takes the one
with least N + 12 K, as a correction costs about 12 ns per point in the
tail and a term about 1 ns in the product (np.einsum, one thread of a
2-vCPU Xeon).  On Bergman's rectangle 0.55..0.95 x 0.05..1.05 that is
K = 4, N = 33, where K = 16 takes N = 20, and its 4e5-point grid takes
about 45 ms against 400 ms by the recurrence.  Against mpmath at 30 digits,
40 points of that grid err by at most 2.4e-15 (2.9e-15 by the
recurrence).  zeta, the recurrence and the NUFFT tail keep K = 16.

The scans of shift_search and the mean square of euler_product evaluate
zeta on progressions s_m = sigma + i (t0 + delta m), m an integer, through
zeta_on_line, which has two branches.  Heights with |t| < 512 go to zeta_grid in ascending
blocks of at most 512 distinct requested heights.  The rest are cut at
every |t| = 2^b and at t = 0 into segments of at most 2^15 consecutive m,
from the first to the last requested m of the band; each segment takes
the term count N of its largest |t|.  About the segment's centre m_c,
t_c = t0 + delta m_c, its partial sums are

    sum_{n <= N} n^{-s_m} = sum_n a_n exp(-i k x_n),
    a_n = n^{-sigma - i t_c},  x_n = delta log n mod 2 pi,  k = m - m_c,

a type-1 nonuniform DFT over the K modes k (K the power of two at or above
the segment's length), as in Odlyzko-Schönhage (Trans. AMS 309, 1988).
It is computed with the Gaussian gridding of Greengard-Lee (SIAM Review
46, 2004): each a_n is spread by a periodic Gaussian over the 2 msp = 32
nearest points of an R K = 2 K point grid, tau = pi msp / (K^2 R (R - 1/2)),
then one FFT, then deconvolution by sqrt(pi / tau) exp(k^2 tau); _em_tail
adds the rest per point.  A segment costs O(N msp + K log K) instead of
O(N K), so a scan to height H costs O(H log H).  Spreading costs about
as much as the recurrence over 200 heights whatever the segment's length
(break-even measured at 190-220 heights for t = 2e4-2.9e4 and fewer
below, one thread of a 2-vCPU Xeon), so a segment with fewer than 200
requested heights goes to zeta_grid as one block.  A zeta_grid call pays
about 64 row steps of numpy overhead whatever its size, so adjacent
zeta_grid blocks on one side of t = 0 are joined while the joined block
holds at most 512 requested heights; it takes the term count of its
largest |t| (heights 3, 6, .. 1500 at Re s 0.9: three blocks of
170/171/159 heights took 5.7 ms, one of 500 heights 2.2-3.3 ms).  The
gridding adds an absolute error of kappa sum_{n <= N} n^{-sigma}, with
kappa <= 3.2e-14 measured against the exact transform of the same a_n and
x_n in extended precision, over 62 segments of the shapes the cuts form
(Re s from -0.99 to 40, delta from 0.02 to 1.5).  That is at most 7e-12
for Re s >= 1/2 on the strip (sum n^{-1/2} <= 2 sqrt(N), N <= 1.3e4),
4e-10 at Re s = 0 and 5e-6 at Re s = -0.99 near t = 3e4; left of 1/2
|zeta| grows with the sum, about like (t / 2 pi)^{1/2 - Re s}.  This is
what fixes the segment rule: a doubling band takes at most about twice the
terms its lowest height needs, so its sum exceeds that height's own by at
most 2^{1 - Re s} < 4, and below |t| = 512 |zeta| is not yet large enough
to absorb the sum at Re s < 0 (one segment over t = 1..513 at Re s = -0.9
errs by 1e-9 at t = 1, 3e-10 at t = 6).  The phase of a_n exp(-i k x_n)
loses about eps (|t_c| + |t - t_c|) log n, as the recurrence does.
Against mpmath at 30 digits the NUFFT branch stays inside the table above;
the largest values measured are 1.2e-12 / 5.5e-12, 7.2e-12 / 4.9e-11,
1.9e-11 / 8.8e-11 and 5.0e-11 / 1.5e-10.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from math import pi

import numpy as np

from .errors import (
    BelowDomain,
    ImaginaryLeak,
    OutOfDomain,
    PoleAt1,
    PoleAtNonPositiveInteger,
    PoleOfGammaFactor,
)

LN2 = math.log(2.0)
LNPI = math.log(pi)
LN2PI = math.log(2.0 * pi)

POLE_GUARD = 1e-12  # radius of the guard disk around s = 1
# the strip the error table of the module docstring certifies
SIGMA_MIN, SIGMA_MAX, T_MAX = -0.99, 40.0, 30000.0
_STRIP = f"the certified strip {SIGMA_MIN} <= Re s <= {SIGMA_MAX}, |Im s| <= {T_MAX}"

_RESTART = 64  # points per exact restart of the partial-sum recurrence
_LINE_BLOCK = 512  # most requested heights per zeta_grid block of zeta_on_line
_BLOCK_ELEMS = 4_000_000  # working values per column slice of _power_rows
_GRID_BLOCK = 1 << 15  # most points per tile of a product grid: the tail's temporaries stay in L2
_CORRECTION_COST = 12  # a tail correction costs about as much as this many product-grid terms

_NUFFT_FROM = 512.0  # |t| from which zeta_on_line sums by NUFFT
_SEGMENT_POINTS = 1 << 15  # most consecutive heights in one NUFFT segment
_NUFFT_MIN_POINTS = 200  # fewest requested heights a NUFFT segment takes; fewer go to zeta_grid
_OVERSAMPLE = 2  # R: FFT points per output mode
_SPREAD = 16  # msp: FFT points on each side of a node that its Gaussian reaches
_SPREAD_CHUNK = 2048  # sources gridded per pass

# B_2, B_4, ..., B_34.  K corrections take B_2 .. B_2K, and Backlund's bound
# on what they leave takes B_{2K+2}, so K runs up to 16.
_BERNOULLI = (
    1.0 / 6,
    -1.0 / 30,
    1.0 / 42,
    -1.0 / 30,
    5.0 / 66,
    -691.0 / 2730,
    7.0 / 6,
    -3617.0 / 510,
    43867.0 / 798,
    -174611.0 / 330,
    854513.0 / 138,
    -236364091.0 / 2730,
    8553103.0 / 6,
    -23749461029.0 / 870,
    8615841276005.0 / 14322,
    -7709321041217.0 / 510,
    2577687858367.0 / 6,
)
_EM_K = len(_BERNOULLI) - 1  # corrections of zeta, the recurrence and the NUFFT tail
_EM_TOL = 1e-13  # bound on the Euler-Maclaurin remainder, absolute

# Lanczos approximation, g = 7, 9 coefficients (right half-plane).
_LANCZOS_G = 7.0
_LANCZOS = (
    0.99999999999980993,
    676.5203681218851,
    -1259.1392167224028,
    771.32342877765313,
    -176.61502916214059,
    12.507343278686905,
    -0.13857109526572012,
    9.9843695780195716e-6,
    1.5056327351493116e-7,
)


_LOG_CACHE = np.log(np.arange(1, 1025, dtype=np.float64))


def _logs(n: int) -> np.ndarray:
    """log(1..n), grown lazily (at least doubling) and cached."""
    global _LOG_CACHE
    if n > _LOG_CACHE.size:
        _LOG_CACHE = np.log(np.arange(1, max(n, 2 * _LOG_CACHE.size) + 1, dtype=np.float64))
    return _LOG_CACHE[:n]


def _in_strip(sigma, t):
    """Whether sigma + i t lies in the certified strip; elementwise for
    arrays, and false for NaN."""
    return (SIGMA_MIN <= sigma) & (sigma <= SIGMA_MAX) & (abs(t) <= T_MAX)


def _require_finite(z: complex, what: str) -> complex:
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise OutOfDomain(f"{what} produced a non-finite value")
    return z


def _em_term_count(sigma: float, t: float, k: int = _EM_K) -> int:
    """Smallest N >= 20 at which the Euler-Maclaurin remainder after k
    corrections is provably below _EM_TOL at s = sigma + i t.

    Backlund's bound |R| <= |s + 2K + 1| / (sigma + 2K + 1) |T_{K+1}(N)|
    with |s + j| <= |s| + 2K + 1 gives |R| <= C N^{-(sigma + 2K + 1)},
    C = (|s| + 2K + 1)^{2K+2} / (sigma + 2K + 1) |B_{2K+2}| / (2K + 2)!.
    The count grows with |t| and falls as sigma grows, so the count at a
    block's smallest sigma and largest |t| covers every point of it.
    """
    k2 = 2 * k
    a = sigma + k2 + 1
    log_c = (
        (k2 + 2) * math.log(math.hypot(sigma, t) + k2 + 1)
        - math.log(a)
        + math.log(abs(_BERNOULLI[k]))
        - math.lgamma(k2 + 3)
    )
    return max(20, math.ceil(math.exp((log_c - math.log(_EM_TOL)) / a)))


def _em_tail(s, power, n: int, k: int = _EM_K):
    """N^{1-s} / (s - 1) - N^{-s} / 2 plus k Bernoulli corrections at N = n,
    from power = N^{-s}; s is a complex or an array of them.
    T_1 = c_1 s N^{-s-1} with c_k = B_{2k} / (2k)!, and each later term is
    T_{k+1} = T_k (s + 2k - 1)(s + 2k) c_{k+1} / (c_k N^2), so no power
    beyond N^{-s} is taken."""
    term = power * s * (_BERNOULLI[0] / (2 * n))
    tail = power * (n / (s - 1) - 0.5) + term
    for j in range(1, k):
        ratio = _BERNOULLI[j] / (_BERNOULLI[j - 1] * (2 * j + 1) * (2 * j + 2) * n * n)
        term = term * ((s + (2 * j - 1)) * (s + 2 * j)) * ratio
        tail = tail + term
    return tail


def _zeta_em(s: complex, n_terms: int) -> complex:
    """Euler-Maclaurin partial sum + boundary + Bernoulli corrections."""
    logs = _logs(n_terms)
    total = complex(np.exp(-s * logs).sum())
    return total + _em_tail(s, cmath.exp(-s * logs[-1]), n_terms)


def zeta(s: complex) -> complex:
    """zeta(s) by Euler-Maclaurin summation.

    Raises PoleAt1 inside the guard disk around s = 1 and OutOfDomain
    outside the certified strip.
    """
    s = complex(s)
    if abs(s - 1.0) < POLE_GUARD:
        raise PoleAt1(f"s = {s} is within {POLE_GUARD} of the pole at 1")
    if not _in_strip(s.real, s.imag):
        raise OutOfDomain(f"s = {s} outside {_STRIP}")
    if s.imag < 0.0:
        return zeta(s.conjugate()).conjugate()
    return _require_finite(_zeta_em(s, _em_term_count(s.real, s.imag)), "zeta")


def _powers(s: np.ndarray, logs: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Rows n^{-s} = exp(-s log n) into out: one row per point of s, one column per log."""
    np.multiply.outer(-s, logs, out=out)
    return np.exp(out, out=out)


def _power_rows(s: np.ndarray, logs: np.ndarray):
    """Yield (points, rows) with rows[i, j] = exp(-s[points[i]] logs[c + j]),
    one column slice c of logs after another, until every point of the 1-D
    array s has met every column.

    The points are cut into tiles of _RESTART consecutive points.  A tile's
    first row is exact; each later row is the one before times
    exp(-(s_k - s_{k-1}) log), with one such step row per distinct
    consecutive difference as stored, so a progression pays a complex
    multiply per entry instead of an exp.  All tiles advance together.  The
    slices are cut so that the rows, step rows and gather buffer of a slice
    hold at most _BLOCK_ELEMS values; the three buffers are reused, so
    each yielded rows array is overwritten by the next step.
    """
    if s.size == 0:
        return
    first = np.arange(0, s.size, _RESTART)
    # positions 1.._RESTART-1 of every tile; those past the end repeat the
    # last point and are never swept
    at = np.minimum(first[:, None] + np.arange(1, _RESTART), s.size - 1)
    diffs, step_of = np.unique(np.diff(s, prepend=s[0])[at], return_inverse=True)
    step_of = step_of.reshape(at.shape)
    last = s.size - first[-1]  # points in the final tile
    width = max(1, min(logs.size, _BLOCK_ELEMS // (2 * first.size + diffs.size)))
    n_rows = (first.size, diffs.size, first.size)  # rows, step rows, gather
    bufs = [np.empty(n * width, dtype=np.complex128) for n in n_rows]
    for c in range(0, logs.size, width):
        cols = logs[c : c + width]
        row, steps, gather = (b[: n * cols.size].reshape(n, cols.size) for b, n in zip(bufs, n_rows))
        _powers(s[first], cols, row)
        _powers(diffs, cols, steps)
        yield first, row
        for j in range(1, min(_RESTART, s.size)):
            k = first.size if j < last else first.size - 1
            g = step_of[:k, j - 1]
            if np.all(g == g[0]):  # a progression: one step row for every tile
                row[:k] *= steps[g[0]]
            else:
                row[:k] *= np.take(steps, g, axis=0, out=gather[:k])
            yield first[:k] + j, row[:k]


def _partial_sums(s: np.ndarray, logs: np.ndarray) -> np.ndarray:
    """sum_{n <= N} n^{-s} for every point of the 1-D array s, N = logs.size,
    accumulated over the rows of _power_rows."""
    out = np.zeros(s.size, dtype=np.complex128)
    for points, rows in _power_rows(s, logs):
        out[points] += rows.sum(axis=1)
    return out


def _check_points(sigma, t) -> None:
    """Raise PoleAt1 or OutOfDomain for the first point sigma + i t that
    lies near s = 1 or outside the certified strip; sigma and t broadcast
    to one 1-D array."""
    sigma, t = np.broadcast_arrays(sigma, t)
    pole = np.hypot(sigma - 1.0, t) < POLE_GUARD
    bad = pole | ~_in_strip(sigma, t)
    if bad.any():
        i = np.argmax(bad)
        z = complex(sigma[i], t[i])
        if pole[i]:
            raise PoleAt1(f"grid point {z} is within {POLE_GUARD} of the pole at 1")
        raise OutOfDomain(f"grid point {z} outside {_STRIP}")


def _grid_axes(s: np.ndarray):
    """(x, y) when the array s is the product grid x_i + i y_j, Re s
    depending only on the row and Im s only on the column, with at least
    _RESTART rows and columns, and every point in the certified strip and
    away from s = 1; None otherwise."""
    if s.ndim != 2 or min(s.shape) < _RESTART:
        return None
    x, y = s.real[:, 0], s.imag[0]
    if not (np.array_equal(s.real, np.broadcast_to(x[:, None], s.shape))
            and np.array_equal(s.imag, np.broadcast_to(y, s.shape))):
        return None
    # hypot(x_i - 1, y_j) is least at the least |x_i - 1| and |y_j|
    near_pole = math.hypot(np.abs(x - 1.0).min(), np.abs(y).min()) < POLE_GUARD
    return None if near_pole or not _in_strip(x, np.abs(y).max()).all() else (x, y)


def _grid_plan(sigma: float, t: float) -> tuple[int, int]:
    """(N, K) for a product grid whose smallest Re s is sigma and largest
    |Im s| is t: of the pairs that meet Backlund's bound, the one with the
    least cost N + _CORRECTION_COST K per point."""
    return min(
        ((_em_term_count(sigma, t, k), k) for k in range(1, _EM_K + 1)),
        key=lambda plan: plan[0] + _CORRECTION_COST * plan[1],
    )


def _product_grid(s: np.ndarray, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """zeta on the product grid s = x_i + i y_j (see _grid_axes).

    n^{-s} = n^{-x_i} n^{-i y_j}, so the partial sums of a tile of the grid
    are one real matrix product: rows[i, n] = n^{-x_i} times the phases
    n^{-i y_j}, their real and imaginary parts interleaved as the columns
    of one real matrix.  Every factor is one exp.  N^{-s} is the outer
    product of the last column of rows and the last row of phases.  A tile
    holds at most _BLOCK_ELEMS row factors, as many phases and _GRID_BLOCK
    points, unless a single row or column exceeds that.  The product is
    np.einsum's own loop, not BLAS: OpenBLAS ran it on both cores of a
    2-vCPU Xeon and then spun for about 0.13 s, slowing the work after it
    by about 15 %.  N and the corrections K come from _grid_plan."""
    n_terms, k = _grid_plan(float(x.min()), float(np.abs(y).max()))
    logs = _logs(n_terms)
    out = np.empty(s.shape, dtype=np.complex128)
    sums = out.view(np.float64)
    height = max(1, min(x.size, _BLOCK_ELEMS // n_terms))
    width = max(1, min(_BLOCK_ELEMS // n_terms, _GRID_BLOCK // height))
    for r in range(0, x.size, height):
        rows = np.exp(np.multiply.outer(-x[r : r + height], logs))
        for c in range(0, y.size, width):
            tile = (slice(r, r + height), slice(c, c + width))
            phases = np.exp(np.multiply.outer(logs, -1j * y[tile[1]]))
            np.einsum("in,nj->ij", rows, phases.view(np.float64),
                      out=sums[tile[0], 2 * c : 2 * c + 2 * phases.shape[1]])
            out[tile] += _em_tail(s[tile], np.multiply.outer(rows[:, -1], phases[-1]), n_terms, k)
    return out


def zeta_grid(s_values: np.ndarray) -> np.ndarray:
    """Vectorised zeta over an array of points sharing one term count.

    The term count is taken at the smallest Re s and the largest |Im s| in
    the array, so this is intended for blocks of points with comparable
    height.  A product grid (see _grid_axes) takes its partial sums from
    matrix products, with the term count and Bernoulli corrections chosen
    together (_product_grid).  Any other array runs along its flattened
    points with a multiplicative recurrence (see _partial_sums); it is
    cheapest when consecutive points differ by one of a few steps.  Raises
    PoleAt1 or OutOfDomain for the first point near s = 1 or outside the
    certified strip.
    """
    s_values = np.asarray(s_values, dtype=np.complex128)
    flat = s_values.ravel()
    axes = _grid_axes(s_values)
    if axes is not None:
        out = _product_grid(s_values, *axes)
    else:  # a product grid with a bad point comes here to have it named
        _check_points(flat.real, flat.imag)
        neg = flat.imag < 0.0
        work = np.where(neg, flat.conj(), flat)
        n_terms = _em_term_count(
            float(np.min(work.real, initial=SIGMA_MAX)),
            float(np.max(work.imag, initial=0.0)),
        )
        logs = _logs(n_terms)
        out = _partial_sums(work, logs)
        out += _em_tail(work, np.exp(-work * logs[-1]), n_terms)
        out = np.where(neg, out.conj(), out).reshape(s_values.shape)
    if not np.all(np.isfinite(out)):
        raise OutOfDomain("zeta_grid produced non-finite values")
    return out


def _spread(s_c: complex, delta: float, logs: np.ndarray, size: int, tau: float) -> np.ndarray:
    """The sources n^{-s_c}, n = 1..logs.size, each placed at its node
    delta log n mod 2 pi and smeared by the periodic Gaussian
    exp(-x^2 / (4 tau)) over the 2 _SPREAD nearest of `size` equispaced
    points of [0, 2 pi) (size a power of two).  Sources go in chunks of
    _SPREAD_CHUNK that share one set of buffers."""
    offsets = np.arange(1 - _SPREAD, _SPREAD + 1)
    step = 2.0 * pi / size
    rows = min(_SPREAD_CHUNK, logs.size)
    weight = np.empty((rows, offsets.size))
    part = np.empty_like(weight)
    index = np.empty((rows, offsets.size), dtype=np.int64)
    re, im = np.zeros(size), np.zeros(size)
    for c in range(0, logs.size, rows):
        chunk = logs[c : c + rows]
        k = chunk.size
        source = np.exp(-s_c * chunk)
        pos = np.mod(delta * chunk, 2.0 * pi) / step
        near = np.floor(pos)
        # distance in grid steps from each node to its 2 _SPREAD grid points
        w = np.subtract.outer(pos - near, offsets, out=weight[:k])
        w *= w
        w *= -step * step / (4.0 * tau)
        np.exp(w, out=w)
        at = np.add.outer(near.astype(np.int64), offsets, out=index[:k])
        at &= size - 1
        at = at.ravel()
        re += np.bincount(at, np.multiply(w, source.real[:, None], out=part[:k]).ravel(), size)
        im += np.bincount(at, np.multiply(w, source.imag[:, None], out=part[:k]).ravel(), size)
    return re + 1j * im


def _nufft_segment(sigma: float, t0: float, delta: float, lo: int, count: int, n_terms: int) -> np.ndarray:
    """zeta(sigma + i (t0 + delta m)) for m = lo .. lo + count - 1 with
    n_terms Euler-Maclaurin terms, the partial sums by one type-1 NUFFT
    about the centre height t_c (module docstring)."""
    modes = 1 << (count - 1).bit_length()
    size = _OVERSAMPLE * modes
    tau = pi * _SPREAD / (modes * modes * _OVERSAMPLE * (_OVERSAMPLE - 0.5))
    centre = lo + count // 2
    logs = _logs(n_terms)
    grid = np.fft.fft(_spread(sigma + 1j * (t0 + delta * centre), delta, logs, size, tau))
    k = np.arange(lo - centre, lo - centre + count)
    partial = grid[k % size] * (math.sqrt(pi / tau) / size * np.exp(tau * k * k))
    s = sigma + 1j * (t0 + delta * (lo + np.arange(count)))
    return partial + _em_tail(s, np.exp(-s * logs[-1]), n_terms)


Line = tuple[float, float, float, np.ndarray]  # (sigma, t0, delta, m): a zeta_on_line call


def _progression_plan(sigma: float, t0: float, delta: float, m: np.ndarray):
    """How zeta_on_line evaluates zeta(sigma + i (t0 + delta m)).

    Returns (u, inverse, pieces): u holds the distinct m in ascending
    order, m = u[inverse], and each piece (i, j, n_terms, dense) covers
    u[i:j].  Heights with |t| < _NUFFT_FROM go to zeta_grid in blocks of
    at most _LINE_BLOCK (dense None).  The others are cut at |t| = 2^b and
    at t = 0; each run of consecutive m from u[i] to u[j - 1], at most
    _SEGMENT_POINTS of them, is one NUFFT segment, dense = (u[i], count),
    unless fewer than _NUFFT_MIN_POINTS of its m are requested: then those
    heights form one zeta_grid block.  A zeta_grid block joins the one
    before it when the joined block holds at most _LINE_BLOCK heights and
    does not cross t = 0.  Every piece takes the term count of its largest
    |t|, as zeta_grid does.  Raises PoleAt1 or OutOfDomain for the first
    point of m near s = 1 or outside the certified strip."""
    m = np.asarray(m, dtype=np.int64)
    _check_points(sigma, t0 + delta * m)
    u, inverse = np.unique(m, return_inverse=True)
    t = t0 + delta * u
    top = np.abs(t)
    band = np.where(top >= _NUFFT_FROM, np.frexp(top)[1], 0) * np.sign(t)
    cuts = np.flatnonzero(np.diff(band)) + 1
    pieces = []
    for i, end in zip([0, *cuts], [*cuts, u.size]):
        while i < end:
            dense = None
            if band[i] == 0:
                j = min(i + _LINE_BLOCK, end)
            else:
                j = i + int(np.searchsorted(u[i:end], u[i] + _SEGMENT_POINTS))
                if j - i >= _NUFFT_MIN_POINTS:
                    dense = (int(u[i]), int(u[j - 1] - u[i]) + 1)
            n_terms = _em_term_count(sigma, float(top[i:j].max()))
            if dense is None and pieces:
                # one zeta_grid call with the block before, if the two stay
                # within _LINE_BLOCK heights on one side of t = 0
                k, _, prev_terms, prev_dense = pieces[-1]
                if prev_dense is None and j - k <= _LINE_BLOCK and t[k] * t[j - 1] >= 0:
                    i, n_terms = k, max(prev_terms, n_terms)
                    pieces.pop()
            pieces.append((int(i), int(j), n_terms, dense))
            i = j
    return u, inverse, pieces


def progression_cost(sigma: float, t0: float, delta: float, m: np.ndarray) -> tuple[int, int]:
    """(zeta values computed, terms summed) by zeta_on_line on the same
    arguments: a zeta_grid block computes its points and sums points times
    its term count; a NUFFT segment computes its consecutive heights and
    spreads one source per term.  Refuses what zeta_on_line refuses."""
    evaluations = terms = 0
    for i, j, n_terms, dense in _progression_plan(sigma, t0, delta, m)[2]:
        evaluations += j - i if dense is None else dense[1]
        terms += (j - i) * n_terms if dense is None else n_terms
    return evaluations, terms


def zeta_on_line(sigma: float, t0: float, delta: float, m: np.ndarray) -> np.ndarray:
    """zeta(sigma + i (t0 + delta m)) for a 1-D integer array m, in any
    order: the line kernel of every scan and of the mean square.

    The pieces of _progression_plan are evaluated in order on the calling
    thread and merged.  A NUFFT segment computes every height between its
    first and last requested m, each once.  Raises PoleAt1 or OutOfDomain
    for the first requested point near s = 1 or outside the certified
    strip."""
    u, inverse, pieces = _progression_plan(sigma, t0, delta, m)
    t = t0 + delta * u
    values = [
        zeta_grid(sigma + 1j * t[i:j]) if dense is None
        else _nufft_segment(sigma, t0, delta, dense[0], dense[1], n_terms)[u[i:j] - dense[0]]
        for i, j, n_terms, dense in pieces
    ]
    out = np.concatenate(values)[inverse] if values else np.empty(0, dtype=np.complex128)
    if not np.all(np.isfinite(out)):
        raise OutOfDomain("zeta_on_line produced non-finite values")
    return out


def _log_sin(z: complex) -> complex:
    """log sin z, stable for large |Im z| via the exponential expansion."""
    if z.imag < 0.0:
        return _log_sin(z.conjugate()).conjugate()
    if z.imag > 20.0:
        # sin z = (i/2) e^{-iz} (1 - e^{2iz}) for Im z large and positive
        return cmath.log(0.5j) - 1j * z + cmath.log(1.0 - cmath.exp(2j * z))
    return cmath.log(cmath.sin(z))


def _near_nonpositive_integer(z: complex, eps: float = 1e-12) -> bool:
    return (
        abs(z.imag) < eps
        and z.real < 0.5
        and abs(z.real - round(z.real)) < eps
    )


def log_gamma(s: complex) -> complex:
    """Principal-branch log Gamma via Lanczos (g = 7).

    Arguments left of Re s = 0.5 are shifted right with the recurrence
    log Gamma(s) = log Gamma(s+1) - Log s, which preserves the principal
    branch on the region used here (away from the negative real axis).
    """
    s = complex(s)
    if _near_nonpositive_integer(s):
        raise PoleAtNonPositiveInteger(f"log_gamma pole at s = {s}")
    shift = 0.0 + 0.0j
    while s.real < 0.5:
        shift += cmath.log(s)
        s += 1.0
    x = s - 1.0
    acc = _LANCZOS[0]
    for i, c in enumerate(_LANCZOS[1:], start=1):
        acc += c / (x + i)
    t = x + _LANCZOS_G + 0.5
    value = 0.5 * LN2PI + (x + 0.5) * cmath.log(t) - t + cmath.log(acc)
    return _require_finite(value - shift, "log_gamma")


def log_chi(s: complex) -> complex:
    """log chi(s) with chi(s) = 2^s pi^(s-1) sin(pi s / 2) Gamma(1 - s).

    The imaginary part is only defined mod 2 pi; the real part (log |chi|)
    is exact.
    """
    s = complex(s)
    if s.imag < 0.0:
        return log_chi(s.conjugate()).conjugate()
    w = 1.0 - s
    if _near_nonpositive_integer(w):
        raise PoleOfGammaFactor(f"Gamma(1 - s) pole at s = {s}")
    return s * LN2 + (s - 1.0) * LNPI + _log_sin(pi * s / 2.0) + log_gamma(w)


def chi(s: complex) -> complex:
    """The functional-equation factor chi(s), computed in log space."""
    s = complex(s)
    if not _in_strip(s.real, s.imag):
        raise OutOfDomain(f"s = {s} outside {_STRIP}")
    return _require_finite(cmath.exp(log_chi(s)), "chi")


def functional_equation_residual(s: complex) -> float:
    """|zeta(s) - chi(s) zeta(1 - s)|, a cross-validation statistic."""
    s = complex(s)
    return abs(zeta(s) - chi(s) * zeta(1.0 - s))


def theta(t: float) -> float:
    """Riemann-Siegel theta: theta(t) = Im log Gamma(1/4 + it/2) - (t/2) log pi.

    Continuous in t >= 2 because the principal log Gamma is continuous
    along the path 1/4 + it/2.  exp(2 i theta(t)) = chi(1/2 + it)^(-1).
    """
    if not 2.0 <= t < math.inf:
        raise BelowDomain(f"theta requires finite t >= 2, got {t}")
    return log_gamma(0.25 + 0.5j * t).imag - 0.5 * t * LNPI


def hardy_z(t: float) -> float:
    """Hardy's Z(t) = zeta(1/2 + it) exp(i theta(t)); real on the line."""
    if not 2.0 <= t < math.inf:
        raise BelowDomain(f"hardy_z requires finite t >= 2, got {t}")
    value = zeta(0.5 + 1j * t) * cmath.exp(1j * theta(t))
    if abs(value.imag) >= 1e-8:
        raise ImaginaryLeak(
            f"Z({t}) imaginary part {value.imag:.3e} exceeds 1e-8"
        )
    return value.real


@dataclass(frozen=True)
class ChiBoundReport:
    """Scan of |chi(sigma + it)| over an even t-grid."""

    t_grid: np.ndarray
    abs_chi: np.ndarray
    t0: float | None  # first grid t from which |chi| >= c holds onward


def chi_lower_bound_check(
    sigma: float,
    c: float,
    t_range: tuple[float, float],
    steps: int,
) -> ChiBoundReport:
    """Certify |chi(sigma + it)| >= c on a grid."""
    if not (0.0 < sigma < 0.5):
        raise OutOfDomain(f"sigma must lie in (0, 1/2), got {sigma}")
    lo, hi = t_range
    if not 2.0 <= lo < hi <= T_MAX:
        raise OutOfDomain(f"t_range {t_range} not inside [2, {T_MAX}]")
    t_grid = np.linspace(lo, hi, steps)
    log_abs = np.array([log_chi(sigma + 1j * t).real for t in t_grid])
    abs_chi = np.exp(log_abs)
    ok = abs_chi >= c
    t0 = None
    # last index before which the condition fails somewhere
    holds_onward = np.logical_and.accumulate(ok[::-1])[::-1]
    idx = np.nonzero(holds_onward)[0]
    if idx.size:
        t0 = float(t_grid[idx[0]])
    return ChiBoundReport(
        t_grid=t_grid,
        abs_chi=abs_chi,
        t0=t0,
    )
