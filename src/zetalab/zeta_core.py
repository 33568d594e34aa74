"""Error-controlled double-precision evaluation of zeta, log-gamma, chi,
theta and Hardy's Z on a strip around the critical line.

zeta uses Euler-Maclaurin summation with K Bernoulli corrections, K = 16
(B_2 ... B_32) except on product grids (below).  The term count N is the
smallest N >= 20 for which Backlund's bound on the remainder,
|R| <= |s + 2K + 1| / (Re s + 2K + 1) |T_{K+1}(N)|, is below 1e-13
(_em_term_count): about 0.4|t| on and right of the critical line and
0.6|t| at Re s = -0.9.  The corrections follow from N^{-s} by the ratio of
consecutive terms, one exp per point.  The scalar `zeta` sums the N powers
n^{-s} directly, and `zeta_grid` calls it at every point of any array but
a product grid.  The term n^{-s} loses about eps |t| log n of phase, so
the error grows with |t|, and left of the critical line with the size of
the terms.  Measured against mpmath at 30 digits, the error relative to
max(1, |zeta|) stays below

    Re s          |t| <= 1e4   |t| <= 3e4
    [1, 40]       5e-12        2e-11
    [1/2, 1)      5e-11        2e-10
    [0, 1/2)      1e-10        5e-10
    (-1, 0)       1.5e-10      8e-10

and the measured errors are at most 1.9e-12 / 6.0e-12, 1.8e-11 / 9.0e-11,
3.5e-11 / 1.7e-10 and 4.2e-11 / 2.5e-10.  The absolute error is this
times |zeta|, which grows like |t|^(1/2 - Re s) left of the line: at
Re s = -0.99, t = 1e4 it is about 3e-6.
chi is assembled in log space so that nothing overflows at t ~ 1e4.

The table certifies the strip SIGMA_MIN <= Re s <= SIGMA_MAX,
|Im s| <= T_MAX, and nothing else: zeta, zeta_grid, zeta_on_line and chi
raise OutOfDomain for any point outside it, and PoleAt1 (not chi) for a
point within POLE_GUARD of s = 1.  Widening the strip means measuring the
table's columns out to the new edge first.

A product grid, a non-empty 2-D array whose Re s depends only on the row
and Im s only on the column (Rectangle.midpoint_grid builds one), takes
the other path in zeta_grid.  As n^{-s} = n^{-x_i} n^{-i y_j}, the partial
sums of a tile are one real matrix product: the exps n^{-x_i} times the
real and imaginary parts of the exps n^{-i y_j}.  Each factor is one exact
exp, so r rows and c columns cost (r + c) N exps, where the points one by
one would cost r c N.  A tile holds at most _BLOCK_ELEMS factors on each
side and _GRID_BLOCK points, so the memory beyond the output is bounded
and the tail's temporaries stay in cache.  N^{-s} is the outer product of
the two last factors.  The path chooses K with N: of the pairs that meet
Backlund's bound it takes the one with least N + 12 K, as a correction
costs about 12 ns per point in the tail and a term about 1 ns in the
product (np.einsum, one thread of a 2-vCPU Xeon).  On Bergman's rectangle
0.55..0.95 x 0.05..1.05 that is K = 4, N = 33, where K = 16 takes N = 20,
and its 4e5-point grid takes about 45 ms.  Against mpmath at 30 digits,
40 points of that grid err by at most 2.4e-15.  zeta and the NUFFT tail
keep K = 16.

The scans of shift_search and the mean square of euler_product evaluate
zeta on progressions s_m = sigma + i (t0 + delta m), m = 1 .. count, delta
> 0, through zeta_on_line, whose every piece is a NUFFT segment, and read
it at their multipliers.  The heights are cut at every |t| = 2^b, b any
integer, and at t = 0 into segments of at most 2^15 consecutive m; each
segment takes the term count N of its largest |t|.  About the
segment's centre m_c, t_c = t0 + delta m_c, its partial sums are

    sum_{n <= N} n^{-s_m} = sum_n a_n exp(-i k x_n),
    a_n = n^{-sigma - i t_c},  x_n = delta log n mod 2 pi,  k = m - m_c,

a type-1 nonuniform DFT over the K modes k (K the power of two at or above
the segment's length), as in Odlyzko-Schönhage (Trans. AMS 309, 1988).
It is computed with the Gaussian gridding of Greengard-Lee (SIAM Review
46, 2004): each a_n is spread by a periodic Gaussian over the 2 msp = 32
nearest points of an R K = 2 K point grid, tau = pi msp / (K^2 R (R - 1/2)),
then one FFT, then deconvolution by sqrt(pi / tau) exp(k^2 tau); _em_tail
adds the rest per point.  A segment costs O(N msp + K log K) instead of
O(N K), so a scan to height H costs O(H log H).  Spreading costs the
same whatever the segment's length and is nearly all of a short segment's
time: one height at t = 2.9e4 takes about 6.5 ms, the scalar zeta 0.4 ms
(one thread of a 2-vCPU Xeon).  The gridding adds an absolute error of
kappa sum_{n <= N} n^{-sigma}, with kappa <= 3.2e-14 measured against
the exact transform of the same a_n and x_n in extended precision, over
62 segments of the shapes the cuts form (Re s from -0.99 to 40, delta
from 0.02 to 1.5).  That is at most 7e-12
for Re s >= 1/2 on the strip (sum n^{-1/2} <= 2 sqrt(N), N <= 1.3e4),
4e-10 at Re s = 0 and 5e-6 at Re s = -0.99 near t = 3e4; left of 1/2
|zeta| grows with the sum, about like (t / 2 pi)^{1/2 - Re s}.  This is
what fixes the segment rule: a doubling band takes at most about twice the
terms its lowest height needs, so its sum exceeds that height's own by at
most 2^{1 - Re s} < 4.  As the bands double all the way down to t = 0, a
low height sums only the few terms (N >= 20) of its own band, where one
segment over t = 1..513 at Re s = -0.9 would err by 1e-9 at t = 1.  The
phase of a_n exp(-i k x_n) loses about eps (|t_c| + |t - t_c|) log n.
Against mpmath at 30 digits the line kernel stays inside the table above;
the largest values measured are 1.2e-12 / 5.5e-12, 7.2e-12 / 4.9e-11,
1.9e-11 / 8.8e-11 and 5.0e-11 / 1.5e-10, and below
|t| = 512 (7005 points on 60 lines, Re s from -0.99 to 40, t from -3 to
511.5) 9.8e-14, 3.5e-13, 1.3e-12 and 2.7e-12, at most 0.02 of the table.
The transform itself (_type1: spread, FFT, deconvolution) takes any logs
and an optional scale per source; euler_product sums its log Euler
products on lattice shifts with it, sources p^{-k s}/k at nodes
delta k log p.
"""

from __future__ import annotations

import bisect
import cmath
import math
from math import pi

import numpy as np

from .errors import (
    BelowDomain,
    ChiBoundUnavailable,
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

_BLOCK_ELEMS = 4_000_000  # most row factors, and most phases, per tile of a product grid
_GRID_BLOCK = 1 << 15  # most points per tile of a product grid: the tail's temporaries stay in L2
_CORRECTION_COST = 12  # a tail correction costs about as much as this many product-grid terms

_SEGMENT_POINTS = 1 << 15  # most consecutive heights in one NUFFT segment
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
_EM_K = len(_BERNOULLI) - 1  # corrections of zeta and the NUFFT tail
# (2j - 1, 2j, B_2j, B_2(j-1) (2j + 1)(2j + 2)) for j = 1 .. _EM_K - 1: the
# constants of _em_tail's step from T_j to T_{j+1}, each the float that the
# step's expression would form
_EM_STEPS = tuple(
    (2 * j - 1.0, 2 * j, _BERNOULLI[j], _BERNOULLI[j - 1] * (2 * j + 1) * (2 * j + 2))
    for j in range(1, _EM_K)
)
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
    beyond N^{-s} is taken.  The right factors of power and term are named,
    so that numpy cannot reuse them as temporaries: it would then swap the
    operands of a complex product, which moves its last bit, only in calls
    above 256 KiB."""
    term = power * s * (_BERNOULLI[0] / (2 * n))
    tail = n / (s - 1) - 0.5
    tail = power * tail + term
    for a, b, num, den in _EM_STEPS[: k - 1]:
        ratio = s + a
        ratio *= s + b
        term = term * ratio * (num / (den * n * n))
        tail = tail + term
    return tail


def _zeta_em(s: complex, n_terms: int) -> complex:
    """Euler-Maclaurin partial sum + boundary + Bernoulli corrections."""
    logs = _logs(n_terms)
    total = complex(np.exp(-s * logs).sum())
    return total + _em_tail(s, cmath.exp(-s * logs[-1]), n_terms)


def _check_strip(s: complex) -> complex:
    """The point check zeta and chi share, in plain Python."""
    if not _in_strip(s.real, s.imag):
        raise OutOfDomain(f"s = {s} outside {_STRIP}")
    return s


def check_zeta(s: complex) -> complex:
    """s as a complex, refused as zeta refuses it: PoleAt1 inside the guard
    disk around s = 1, OutOfDomain outside the certified strip."""
    s = complex(s)
    if abs(s - 1.0) < POLE_GUARD:
        raise PoleAt1(f"s = {s} is within {POLE_GUARD} of the pole at 1")
    return _check_strip(s)


def _zeta_point(s: complex) -> complex:
    """zeta(s) by Euler-Maclaurin summation at a point that check_zeta
    passes; below the real axis, the conjugate of zeta(conj s)."""
    if s.imag < 0.0:
        return _zeta_em(s.conjugate(), _em_term_count(s.real, -s.imag)).conjugate()
    return _zeta_em(s, _em_term_count(s.real, s.imag))


def zeta(s: complex) -> complex:
    """zeta(s) by Euler-Maclaurin summation; refuses what check_zeta refuses."""
    return _require_finite(_zeta_point(check_zeta(s)), "zeta")


def check_points(sigma, t) -> None:
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


def check_progression(sigma: float, t0: float, delta: float, count: int) -> None:
    """ValueError unless delta is finite and positive; then check_points on
    sigma + i (t0 + delta m), m = 1 .. count, without building the heights.
    t rises with m, so if m = 1 is good the first bad m is the first with
    t > T_MAX or the first with t >= 0 or near the pole, whichever comes
    first and is bad."""
    if not 0.0 < delta < math.inf:
        raise ValueError(f"delta must be finite and positive, got {delta}")

    def t(m):
        return t0 + delta * m  # as numpy forms it from an int64 m

    ms = range(1, count + 1)
    near = bisect.bisect_left(  # |t| falls while t < 0, so the key holds from one m on
        ms, True, key=lambda m: t(m) >= 0.0 or np.hypot(sigma - 1.0, t(m)) < POLE_GUARD)
    above = bisect.bisect_right(ms, T_MAX, key=t)
    check_points(sigma, np.array([t(ms[i]) for i in sorted({0, near, above}) if i < count]))


def _grid_axes(s: np.ndarray):
    """(x, y) when the array s is a non-empty product grid x_i + i y_j, Re s
    depending only on the row and Im s only on the column, with every point
    in the certified strip and away from s = 1; None otherwise."""
    if s.ndim != 2 or s.size == 0:
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
    """zeta over an array of points.  A product grid (see _grid_axes) takes
    its partial sums from matrix products, with the term count and
    Bernoulli corrections chosen together (_product_grid); any other array
    gets the scalar zeta's value at each point.  Raises PoleAt1 or
    OutOfDomain for the first point near s = 1 or outside the certified
    strip.
    """
    s_values = np.asarray(s_values, dtype=np.complex128)
    axes = _grid_axes(s_values)
    if axes is not None:
        out = _product_grid(s_values, *axes)
    else:  # a product grid with a bad point comes here to have it named
        flat = s_values.ravel()
        check_points(flat.real, flat.imag)
        out = np.array([_zeta_point(s) for s in flat.tolist()], dtype=np.complex128).reshape(s_values.shape)
    if not np.all(np.isfinite(out)):
        raise OutOfDomain("zeta_grid produced non-finite values")
    return out


def _spread(s_c: complex, delta: float, logs: np.ndarray, size: int, tau: float,
            scale: np.ndarray | None = None) -> np.ndarray:
    """The sources exp(-s_c L), L = logs[j], times scale[j] when a scale is
    given, each placed at its node delta L mod 2 pi and smeared by the
    periodic Gaussian exp(-x^2 / (4 tau)) over the 2 _SPREAD nearest of
    `size` equispaced points of [0, 2 pi) (size a power of two).  Sources go
    in chunks of _SPREAD_CHUNK."""
    offsets = np.arange(1 - _SPREAD, _SPREAD + 1)
    step = 2.0 * pi / size
    re, im = np.zeros(size), np.zeros(size)
    for c in range(0, logs.size, _SPREAD_CHUNK):
        chunk = logs[c : c + _SPREAD_CHUNK]
        source = np.exp(-s_c * chunk)
        if scale is not None:
            source *= scale[c : c + _SPREAD_CHUNK]
        pos = np.mod(delta * chunk, 2.0 * pi) / step
        near = np.floor(pos)
        # distance in grid steps from each node to its 2 _SPREAD grid points
        w = np.subtract.outer(pos - near, offsets)
        w *= w
        w *= -step * step / (4.0 * tau)
        np.exp(w, out=w)
        at = np.add.outer(near.astype(np.int64), offsets)
        at &= size - 1
        at = at.ravel()
        re += np.bincount(at, (w * source.real[:, None]).ravel(), size)
        im += np.bincount(at, (w * source.imag[:, None]).ravel(), size)
    return re + 1j * im


def _type1(anchor: complex, delta: float, logs: np.ndarray, lo: int, count: int,
           scale: np.ndarray | None = None) -> np.ndarray:
    """sum_j scale_j exp(-(anchor + i delta m) logs_j) for m = lo .. lo +
    count - 1 (scale_j = 1 when no scale is given), by one type-1 NUFFT
    about the centre m_c = lo + count // 2: the sources exp(-s_c logs_j),
    s_c = anchor + i delta m_c, are spread (_spread), one FFT sums them over
    the K modes k = m - m_c (K the power of two at or above count), and
    deconvolution by sqrt(pi / tau) exp(k^2 tau) undoes the Gaussian
    (module docstring).  The gridding adds an absolute error of at most
    kappa sum_j |scale_j exp(-Re(anchor) logs_j)|."""
    modes = 1 << (count - 1).bit_length()
    size = _OVERSAMPLE * modes
    tau = pi * _SPREAD / (modes * modes * _OVERSAMPLE * (_OVERSAMPLE - 0.5))
    centre = lo + count // 2
    s_c = anchor.real + 1j * (anchor.imag + delta * centre)
    grid = np.fft.fft(_spread(s_c, delta, logs, size, tau, scale))
    k = np.arange(lo - centre, lo - centre + count)
    return grid[k % size] * (math.sqrt(pi / tau) / size * np.exp(tau * k * k))


def _nufft_segment(sigma: float, t0: float, delta: float, lo: int, count: int, n_terms: int) -> np.ndarray:
    """zeta(sigma + i (t0 + delta m)) for m = lo .. lo + count - 1 with
    n_terms Euler-Maclaurin terms, the partial sums by one type-1 NUFFT
    about the centre height t_c (_type1)."""
    logs = _logs(n_terms)
    partial = _type1(complex(sigma, t0), delta, logs, lo, count)
    s = sigma + 1j * (t0 + delta * (lo + np.arange(count)))
    return partial + _em_tail(s, np.exp(-s * logs[-1]), n_terms)


Line = tuple[float, float, float, int]  # (sigma, t0, delta, count): a zeta_on_line call


def _progression_plan(sigma: float, t0: float, delta: float, count: int):
    """How zeta_on_line evaluates zeta(sigma + i (t0 + delta m)), m = 1 ..
    count: the pieces (lo, n, n_terms), each one NUFFT segment over m = lo
    .. lo + n - 1 with n_terms Euler-Maclaurin terms, the count of its
    largest |t|.  The heights are cut at every |t| = 2^b and at t = 0, and
    each band into runs of at most _SEGMENT_POINTS consecutive m.  Refuses
    what check_progression refuses, before any array is built."""
    check_progression(sigma, t0, delta, count)
    t = t0 + delta * np.arange(1, count + 1)
    top = np.abs(t)
    cuts = (np.flatnonzero((np.diff(np.frexp(top)[1]) != 0) | (np.diff(np.sign(t)) != 0)) + 1).tolist()
    pieces = []
    for start, end in zip([0, *cuts], [*cuts, count]):
        for i in range(start, end, _SEGMENT_POINTS):
            j = min(i + _SEGMENT_POINTS, end)
            pieces.append((i + 1, j - i, _em_term_count(sigma, float(top[i:j].max()))))
    return pieces


def progression_cost(sigma: float, t0: float, delta: float, count: int) -> tuple[int, int]:
    """(zeta values computed, terms summed) by zeta_on_line on the same
    arguments: count values, and one source spread per term of each NUFFT
    segment.  Refuses what zeta_on_line refuses."""
    return count, sum(n_terms for _, _, n_terms in _progression_plan(sigma, t0, delta, count))


def zeta_on_line(sigma: float, t0: float, delta: float, count: int) -> np.ndarray:
    """zeta(sigma + i (t0 + delta m)) for m = 1 .. count: the line kernel of
    every scan and of the mean square, which read it at their multipliers.

    The NUFFT segments of _progression_plan are evaluated in order on the
    calling thread and joined.  Refuses what check_progression refuses."""
    values = [_nufft_segment(sigma, t0, delta, *piece)
              for piece in _progression_plan(sigma, t0, delta, count)]
    out = np.concatenate([np.empty(0, dtype=np.complex128), *values])
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
    is exact.  chi has a zero at s = 0, where OutOfDomain is raised.
    """
    s = complex(s)
    if s == 0:
        raise OutOfDomain(f"log chi is undefined at s = {s}, a zero of chi")
    if s.imag < 0.0:
        return log_chi(s.conjugate()).conjugate()
    return s * LN2 + (s - 1.0) * LNPI + _log_sin(pi * s / 2.0) + log_gamma(1.0 - s)


def check_chi(s: complex) -> complex:
    """s as a complex, refused as chi refuses it: OutOfDomain outside the
    certified strip, PoleOfGammaFactor at a positive integer."""
    s = _check_strip(complex(s))
    if _near_nonpositive_integer(1.0 - s):
        raise PoleOfGammaFactor(f"Gamma(1 - s) pole at s = {s}")
    return s


def chi(s: complex) -> complex:
    """The functional-equation factor chi(s), computed in log space, and 0
    at its simple zero s = 0, the only one in the strip.  Every positive
    integer s is refused, the even ones too, where chi is finite:
    chi(2) = zeta(2) / zeta(-1) = -2 pi^2."""
    s = check_chi(s)
    if s == 0:
        return 0j
    return _require_finite(cmath.exp(log_chi(s)), "chi")


def functional_equation_residual(s: complex) -> float:
    """|zeta(s) - chi(s) zeta(1 - s)|, a cross-validation statistic."""
    s = complex(s)
    return abs(zeta(s) - chi(s) * zeta(1.0 - s))


def check_theta(t: float) -> None:
    """Refuse what theta refuses: t below 2, infinite or NaN."""
    if not 2.0 <= t < math.inf:
        raise BelowDomain(f"theta requires finite t >= 2, got {t}")


def theta(t: float) -> float:
    """Riemann-Siegel theta: theta(t) = Im log Gamma(1/4 + it/2) - (t/2) log pi.

    Continuous in t >= 2 because the principal log Gamma is continuous
    along the path 1/4 + it/2.  exp(2 i theta(t)) = chi(1/2 + it)^(-1).
    """
    check_theta(t)
    return log_gamma(0.25 + 0.5j * t).imag - 0.5 * t * LNPI


def hardy_z(t: float) -> float:
    """Hardy's Z(t) = zeta(1/2 + it) exp(i theta(t)); real on the line."""
    check_theta(t)
    value = zeta(0.5 + 1j * t) * cmath.exp(1j * theta(t))
    if abs(value.imag) >= 1e-8:
        raise ImaginaryLeak(
            f"Z({t}) imaginary part {value.imag:.3e} exceeds 1e-8"
        )
    return value.real


def chi_lower_bound_check(sigma: float, c: float, t: float) -> float:
    """b = exp(L - 1e-14 (1 + |L|)) <= |chi(sigma + it')| at every t' >= t, or
    ChiBoundUnavailable if b < c; OutOfDomain unless 0 < sigma < 1/2, t > 0.

        log|chi(sigma + it)| >= L = (1/2 - sigma) log(t / 2 pi) - a^3 / (3 t^2)
                                    + log(1 - e^(-pi t)) - 1 / (90 t^3),  a = 1 - sigma:

    chi(s) = 2^s pi^(s-1) sin(pi s/2) Gamma(1 - s) with |sin(pi s/2)| >= e^(pi t/2)
    (1 - e^(-pi t)) / 2, and Stirling's series for log Gamma(z), z = a - it, cut
    after 1/(12 z), whose real part is >= 0, leaves at most sec^4(ph(z)/2) /
    (360 |z|^3) <= 1 / (90 t^3) (DLMF 5.11(ii)); the constants collapse to
    (sigma - 1/2) log 2 pi, and t arctan(a/t) >= a - a^3 / (3 t^2), |z| >= t.
    Each term of L increases with t.  The allowance covers the rounding of exp
    and of L's dozen float operations, each within an ulp of |L| + 2."""
    if not 0.0 < sigma < 0.5:
        raise OutOfDomain(f"sigma must lie in (0, 1/2), got {sigma}")
    if not 0.0 < t < math.inf:
        raise OutOfDomain(f"t must be finite and positive, got {t}")
    a, u = 1.0 - sigma, 1.0 / t  # powers of u, not of t, which underflow for tiny t
    log_b = ((0.5 - sigma) * (math.log(t) - LN2PI) - a ** 3 * u * u / 3.0
             + math.log(-math.expm1(-pi * t)) - u * u * u / 90.0)
    b = math.exp(log_b - 1e-14 * (1.0 + abs(log_b)))
    if not b >= c:
        raise ChiBoundUnavailable(f"|chi| >= {c} not certified at sigma {sigma}, t {t}: b = {b}")
    return b
