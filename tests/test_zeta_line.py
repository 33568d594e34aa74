"""The partial-sum recurrence in zeta_grid and the line kernel
zeta_on_line with its NUFFT segments: accuracy against mpmath, determinism
on rerun and from a cold log cache, working memory, and equivalence of the
scans with a direct exp-per-term summation."""

import math
import re
import tracemalloc

import mpmath
import numpy as np
import pytest

from zetalab import euler_product as ep
from zetalab import shift_search as ss
from zetalab import zeta_core as zc
from zetalab.beatty import GOLDEN, BeattyPair, beatty_terms, sigma_alpha
from zetalab.errors import OutOfDomain, PoleAt1

mpmath.mp.dps = 30


def _contract(sigma: float, t: float) -> float:
    """Stated error of zeta and zeta_grid relative to max(1, |zeta|)
    (zeta_core module docstring)."""
    low = abs(t) <= 1e4
    if sigma >= 1.0:
        return 5e-12 if low else 2e-11
    if sigma >= 0.5:
        return 5e-11 if low else 2e-10
    if sigma >= 0.0:
        return 1e-10 if low else 5e-10
    return 1.5e-10 if low else 8e-10


def _swap_heights() -> np.ndarray:
    pair = BeattyPair.from_alpha(GOLDEN)
    return 10.0 + np.sort([float(sigma_alpha(pair, n)) for n in range(1, 2001)])


def _line_cases():
    rng = np.random.default_rng(11)
    return {
        "progression-2.85e4": (0.6, 28_500.0 + 0.5 * np.arange(512)),
        "right-edge-2.9e4": (1.0, 29_000.0 + 0.5 * np.arange(512)),
        "left-edge-2.9e4": (-0.99, 29_000.0 + 0.5 * np.arange(512)),
        "golden-beatty": (0.75, 10.0 + np.floor(GOLDEN * np.arange(1489, 2001))),
        "sorted-swap": (0.75, _swap_heights()[-512:]),
        "scattered": (0.5, np.sort(rng.uniform(9_000.0, 10_000.0, 512))),
        "left-of-zero": (-0.9, 9_500.25 + np.arange(512)),
        "left-half": (0.3, 9_500.25 + np.arange(512)),
        "right-half": (0.75, 9_500.25 + np.arange(512)),
    }


# first and last rows of the first two restart tiles, plus the block's end
_SAMPLE = (0, 1, 63, 64, 127, 300, 511)


@pytest.mark.parametrize("case", sorted(_line_cases()))
def test_line_blocks_against_mpmath(case):
    sigma, heights = _line_cases()[case]
    values = zc.zeta_grid(sigma + 1j * heights)
    for i in _SAMPLE:
        s = complex(sigma, heights[i])
        exact = complex(mpmath.zeta(mpmath.mpc(s.real, s.imag)))
        scale = max(1.0, abs(exact))
        bound = _contract(sigma, heights[i])
        assert abs(values[i] - exact) / scale < bound, (case, i)
        assert abs(zc.zeta(s) - exact) / scale < bound, (case, i)


def _em_in_mpmath(s: complex, n: int, k: int):
    """Euler-Maclaurin for zeta(s) with n terms and k corrections in mpmath,
    and Backlund's bound |s + 2k + 1| / (Re s + 2k + 1) |T_{k+1}(n)| on its
    remainder.  n^{-s} = (n/p)^{-s} p^{-s} over the least prime p of n."""
    s = mpmath.mpc(s.real, s.imag)
    least = list(range(n + 1))
    for p in range(2, math.isqrt(n) + 1):
        if least[p] == p:
            for q in range(p * p, n + 1, p):
                if least[q] == q:
                    least[q] = p
    powers = [mpmath.mpf(0), mpmath.mpf(1)]
    for j in range(2, n + 1):
        p = least[j]
        powers.append(mpmath.power(j, -s) if p == j else powers[j // p] * powers[p])
    big_n = mpmath.mpf(n)

    def correction(j):  # B_2j / (2j)! s (s+1) ... (s+2j-2) n^{-s-2j+1}
        return mpmath.bernoulli(2 * j) / mpmath.factorial(2 * j) * mpmath.rf(s, 2 * j - 1) * big_n ** (-s - 2 * j + 1)

    value = mpmath.fsum(powers) - powers[n] / 2 + big_n ** (1 - s) / (s - 1)
    value += mpmath.fsum(correction(j) for j in range(1, k + 1))
    bound = abs(s + 2 * k + 1) / (s.real + 2 * k + 1) * abs(correction(k + 1))
    return value, bound


def _assert_remainder_bound(sigma: float, t: float, k: int) -> None:
    n = zc._em_term_count(sigma, t, k)
    with mpmath.workdps(40):
        value, bound = _em_in_mpmath(complex(sigma, t), n, k)
        error = abs(value - mpmath.zeta(mpmath.mpc(sigma, t)))
        # the closed form behind the count: C n^{-(Re s + 2k + 1)}
        a = sigma + 2 * k + 1
        closed = (abs(mpmath.mpc(sigma, t)) + 2 * k + 1) ** (2 * k + 2) / a
        closed *= abs(mpmath.bernoulli(2 * k + 2)) / mpmath.factorial(2 * k + 2) * mpmath.mpf(n) ** -a
    roundoff = 1e-38 * n ** max(1.0, 1.0 - sigma)  # 40 digits over n terms of size <= n^-sigma
    assert error <= bound + roundoff and bound <= closed <= zc._EM_TOL, (sigma, t, k, n)


@pytest.mark.parametrize("t", [0.5, 2.0, 50.0, 1e3, 1e4, 3e4])
def test_term_count_meets_remainder_bound(t):
    for sigma in (-0.99, -0.5, 0.0, 0.5, 0.75, 1.5, 40.0):
        _assert_remainder_bound(sigma, t, zc._EM_K)


_PLAN_SIGMAS = (-0.99, -0.5, 0.0, 0.5, 0.75, 1.5, 4.0, 10.0, 40.0)
_PLAN_HEIGHTS = (0.0, 0.5, 2.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0, 512.0, 1e3, 1e4, 3e4)


@pytest.mark.parametrize("k", range(1, zc._EM_K + 1))
def test_grid_plan_term_count_meets_remainder_bound(k):
    # the product-grid plan may pick any k: check each at the lowest and the
    # highest point of a scan of the strip where the plan picks it
    picks = [(sigma, t) for t in _PLAN_HEIGHTS for sigma in _PLAN_SIGMAS
             if zc._grid_plan(sigma, t)[1] == k]
    assert picks, f"the plan picks k = {k} nowhere on the scan"
    for sigma, t in {picks[0], picks[-1]}:
        assert zc._grid_plan(sigma, t)[0] == zc._em_term_count(sigma, t, k)
        _assert_remainder_bound(sigma, t, k)


def test_midpoint_grid_against_mpmath():
    grid = ep.Rectangle(0.55, 0.95, 0.05, 1.05).midpoint_grid(0.01)
    values = zc.zeta_grid(grid)
    assert values.shape == grid.shape
    rng = np.random.default_rng(3)
    for i, j in zip(rng.integers(0, grid.shape[0], 12), rng.integers(0, grid.shape[1], 12)):
        s = complex(grid[i, j])
        exact = complex(mpmath.zeta(mpmath.mpc(s.real, s.imag)))
        assert abs(values[i, j] - exact) / max(1.0, abs(exact)) < _contract(s.real, s.imag)


def test_grid_names_first_offending_point():
    with pytest.raises(PoleAt1, match=r"\(1\+0j\)"):
        zc.zeta_grid(np.array([[0.5 + 3j, 1.0 + 0j], [-2.0 + 0j, 0.5 + 4j]]))
    with pytest.raises(OutOfDomain, match=r"\(-2\+0j\)"):
        zc.zeta_grid(np.array([0.5 + 3j, -2.0 + 0j, 1.0 + 0j]))
    with pytest.raises(OutOfDomain):
        zc.zeta_grid(np.array([0.5 + 3j, complex(np.nan, 1.0)]))


def _product_cases():
    return {
        "bergman": np.add.outer(np.linspace(0.55, 0.95, 64), 1j * np.linspace(0.05, 1.05, 80)),
        "across-zero": np.add.outer(np.linspace(0.2, 0.8, 64), 1j * np.linspace(-8.0, 5.0, 97)),
        "left-of-zero": np.add.outer(np.linspace(-0.99, -0.1, 70), 1j * np.linspace(100.0, 110.0, 64)),
        "tall-right": np.add.outer(np.linspace(0.5, 2.0, 64), 1j * np.linspace(9_990.0, 10_000.0, 64)),
    }


@pytest.mark.parametrize("case", sorted(_product_cases()))
def test_product_grid_against_mpmath(monkeypatch, case):
    grid = _product_cases()[case]

    def no_recurrence(s, logs):
        raise AssertionError("a product grid ran the recurrence")

    monkeypatch.setattr(zc, "_partial_sums", no_recurrence)
    values = zc.zeta_grid(grid)
    assert values.shape == grid.shape
    rng = np.random.default_rng(7)
    rows, cols = grid.shape
    corners = [(0, 0), (0, cols - 1), (rows - 1, 0), (rows - 1, cols - 1)]
    for i, j in corners + list(zip(rng.integers(0, rows, 6), rng.integers(0, cols, 6))):
        s = complex(grid[i, j])
        exact = complex(mpmath.zeta(mpmath.mpc(s.real, s.imag)))
        assert abs(values[i, j] - exact) / max(1.0, abs(exact)) < _contract(s.real, s.imag), (case, i, j)


def test_product_grid_tail_takes_the_plan(monkeypatch):
    grid = _product_cases()["across-zero"]  # largest |Im s| at Im s = -8
    plan = zc._grid_plan(0.2, 8.0)
    tails = []
    tail = zc._em_tail
    monkeypatch.setattr(zc, "_em_tail", lambda s, power, n, k=zc._EM_K: tails.append((n, k)) or tail(s, power, n, k))
    zc.zeta_grid(grid)
    assert tails and set(tails) == {plan}


def test_product_grid_independent_of_tiles(monkeypatch):
    grid = _product_cases()["across-zero"]
    values = zc.zeta_grid(grid)
    for elems, points in ((200, zc._GRID_BLOCK), (10**6, 7), (100, 1)):
        monkeypatch.setattr(zc, "_BLOCK_ELEMS", elems)  # tiles of a few rows
        monkeypatch.setattr(zc, "_GRID_BLOCK", points)
        assert zc.zeta_grid(grid).tobytes() == values.tobytes(), (elems, points)


@pytest.mark.parametrize("x, y, error", [
    (np.linspace(0.0, 2.0, 65), np.linspace(-1.0, 1.0, 65), PoleAt1),
    (np.linspace(0.5, -1.5, 64), np.linspace(10.0, 20.0, 64), OutOfDomain),
    (np.linspace(0.5, 0.9, 64), np.linspace(29_990.0, 30_010.0, 64), OutOfDomain),
    (np.linspace(0.5, 0.9, 64), np.linspace(-30_010.0, -29_990.0, 64), OutOfDomain),
])
def test_product_grid_names_first_offending_point(x, y, error):
    grid = np.add.outer(x, 1j * y)
    with pytest.raises(error) as flat:
        zc.zeta_grid(grid.ravel())
    with pytest.raises(error, match=f"^{re.escape(str(flat.value))}$"):
        zc.zeta_grid(grid)


def test_other_arrays_keep_the_recurrence(monkeypatch):
    def no_product(s, x, y):
        raise AssertionError("the product path ran")

    monkeypatch.setattr(zc, "_product_grid", no_product)
    calls = []
    recurrence = zc._partial_sums
    monkeypatch.setattr(zc, "_partial_sums", lambda s, logs: calls.append(s.size) or recurrence(s, logs))
    grid = _product_cases()["bergman"]
    nudged_re, nudged_im = grid.copy(), grid.copy()
    nudged_re[5, 7] += 1e-9  # Re s no longer constant along its row
    nudged_im[9, 3] += 1e-9j  # Im s no longer constant down its column
    arrays = {
        "nudged-re": nudged_re,
        "nudged-im": nudged_im,
        "40 x 100": ep.Rectangle(0.55, 0.95, 0.05, 1.05).midpoint_grid(0.01),
        "transposed": grid.T,  # Re s along the columns
        "3-D": grid.reshape(2, 32, 80),
    }
    for name, points in arrays.items():
        calls.clear()
        zc.zeta_grid(points)
        assert calls == [points.size], name


def test_working_memory_bounded_for_scattered_block(monkeypatch):
    heights = np.sort(np.random.default_rng(5).uniform(9_000.0, 10_000.0, 512))
    budget = 200_000
    monkeypatch.setattr(zc, "_BLOCK_ELEMS", budget)
    zc.zeta_grid(0.5 + 1j * heights[:2])  # grow the log cache
    tracemalloc.start()
    try:
        zc.zeta_grid(0.5 + 1j * heights)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * budget + 2**20


def _direct_partial_sums(s, logs):
    """The exp-per-term partial sum that the recurrence replaced."""
    out = np.empty(s.size, dtype=np.complex128)
    chunk = max(1, zc._BLOCK_ELEMS // logs.size)
    for i in range(0, s.size, chunk):
        out[i : i + chunk] = np.exp(-np.multiply.outer(s[i : i + chunk], logs)).sum(axis=1)
    return out


def _criterion_10_and_11():
    grid = ss.VerticalGrid(s=0.75 + 0j, h=1.0, l=1)
    hits, _ = ss.scan_disk_hits(grid, ss.TargetDisk(a=1.0 + 0j, epsilon=0.6), 10**4)
    chi_rep = zc.chi_lower_bound_check(0.3, 1.0, (2.0, 200.0), 500)
    flip_grid = ss.VerticalGrid(s=complex(0.3, max(50.0, chi_rep.t0)), h=1.0, l=2)
    flip = ss.left_half_flip(flip_grid, r=1.0, c=1.0, N=10**4, t0=chi_rep.t0)
    return {h.n: h.max_dev for h in hits}, flip


def _direct_progression(sigma, t0, delta, m):
    """zeta on the progression by zeta_grid over blocks of 512 sorted
    heights, which with _direct_partial_sums patched in sums exp per term."""
    order = np.argsort(m, kind="stable")
    points = sigma + 1j * (t0 + delta * m[order])
    out = np.empty(m.size, dtype=np.complex128)
    blocks = [points[i : i + 512] for i in range(0, m.size, 512)]
    out[order] = np.concatenate([zc.zeta_grid(block) for block in blocks])
    return out


def test_scans_match_direct_summation(monkeypatch):
    hits, flip = _criterion_10_and_11()
    monkeypatch.setattr(zc, "_partial_sums", _direct_partial_sums)
    monkeypatch.setattr(zc, "zeta_on_line", _direct_progression)
    ref_hits, ref_flip = _criterion_10_and_11()
    assert sorted(hits) == sorted(ref_hits)
    assert max(abs(hits[n] - ref_hits[n]) for n in hits) < 1e-10
    assert flip.predicted_hits == ref_flip.predicted_hits
    assert flip.confirmed_hits == ref_flip.confirmed_hits
    assert flip.disagreements == ref_flip.disagreements


def _tile_sweep_partial_sums(s, logs):
    """The partial-sum recurrence as it stood before the power rows were
    shared with the Euler products: one loop that allocates its rows, step
    rows and gather buffer afresh for every column slice."""
    def powers(points, cols):
        rows = np.multiply.outer(-points, cols)
        return np.exp(rows, out=rows)

    out = np.zeros(s.size, dtype=np.complex128)
    if s.size == 0:
        return out
    first = np.arange(0, s.size, zc._RESTART)
    at = np.minimum(first[:, None] + np.arange(1, zc._RESTART), s.size - 1)
    diffs, step_of = np.unique(np.diff(s, prepend=s[0])[at], return_inverse=True)
    step_of = step_of.reshape(at.shape)
    last = s.size - first[-1]
    width = max(1, zc._BLOCK_ELEMS // (2 * first.size + diffs.size))
    for c in range(0, logs.size, width):
        row = powers(s[first], logs[c : c + width])
        steps = powers(diffs, logs[c : c + width])
        gather = np.empty_like(row)
        out[first] += row.sum(axis=1)
        for j in range(1, min(zc._RESTART, s.size)):
            k = first.size if j < last else first.size - 1
            g = step_of[:k, j - 1]
            if np.all(g == g[0]):
                row[:k] *= steps[g[0]]
            else:
                row[:k] *= np.take(steps, g, axis=0, out=gather[:k])
            out[first[:k] + j] += row[:k].sum(axis=1)
        del row, steps, gather
    return out


@pytest.mark.parametrize("budget", [4_000_000, 200_000, 5_000])
@pytest.mark.parametrize("case", ["progression", "sorted-beatty", "midpoint-grid"])
def test_grid_bit_identical_to_tile_sweep(monkeypatch, case, budget):
    points = {
        "progression": 0.75 + 1j * (28_000.0 + np.arange(512)),
        "sorted-beatty": 0.75 + 1j * _swap_heights()[:512],
        # flattened, so that a product grid cannot skip the recurrence on both sides
        "midpoint-grid": ep.Rectangle(0.55, 0.95, 0.05, 1.05).midpoint_grid(0.01).ravel(),
    }[case]
    monkeypatch.setattr(zc, "_BLOCK_ELEMS", budget)
    values = zc.zeta_grid(points)
    monkeypatch.setattr(zc, "_partial_sums", _tile_sweep_partial_sums)
    reference = zc.zeta_grid(points)
    assert values.tobytes() == reference.tobytes()


def _assert_contract(sigma, heights, values):
    for t, value in zip(heights, values):
        exact = complex(mpmath.zeta(mpmath.mpc(sigma, t)))
        assert abs(value - exact) / max(1.0, abs(exact)) < _contract(sigma, t), (sigma, t)


# the fallback boundary |t| = 512, then the cuts at doubling heights
_EDGES = [512.0 * 2**b for b in range(6)]


def _plan(sigma, t0, delta, m):
    """(first m, last m, NUFFT or not) for each piece of the progression plan."""
    u, _, pieces = zc._progression_plan(sigma, t0, delta, np.asarray(m))
    return [(int(u[i]), int(u[j - 1]), dense is not None) for i, j, _, dense in pieces]


@pytest.mark.parametrize("sigma", [-0.9, 0.3, 0.5, 0.75, 1.0])
def test_progression_segment_edges_against_mpmath(sigma):
    # a line from t = 508 to 16 384 + 74.75: just below and at every edge,
    # the first and last height of each NUFFT segment and the extreme modes
    # of its transform, up to the last height of a 300-point top segment
    delta = 0.25
    m = np.arange(round(508.0 / delta), round(_EDGES[-1] / delta) + 300)
    check = np.array([round(edge / delta) + k for edge in _EDGES for k in (-1, 0)] + [m[-1]])
    values = zc.zeta_on_line(sigma, 0.0, delta, m)
    _assert_contract(sigma, delta * check, values[check - m[0]])


def test_progression_plan_cuts_at_512_and_doubling_heights():
    # heights 500 .. 2249.5: a recurrence block below 512, then one NUFFT
    # segment per band [512, 1024), [1024, 2048), [2048, 2249.5]
    m = np.arange(1000, 4500)
    assert _plan(0.75, 0.0, 0.5, m) == [
        (1000, 1023, False), (1024, 2047, True), (2048, 4095, True), (4096, 4499, True)
    ]
    terms = [n for _, _, n, _ in zc._progression_plan(0.75, 0.0, 0.5, m)[2]]
    assert terms == [zc._em_term_count(0.75, 0.5 * top) for top in (1023, 2047, 4095, 4499)]


def test_progression_short_segments_go_to_the_recurrence():
    # the break-even: a band's segment with fewer requested heights than
    # _NUFFT_MIN_POINTS is one zeta_grid block, counted by requested heights
    # and not by the span of m they cover
    k = zc._NUFFT_MIN_POINTS
    assert _plan(0.75, 0.0, 0.5, np.arange(3000, 4096 + k))[1:] == [(4096, 4095 + k, True)]
    assert _plan(0.75, 0.0, 0.5, np.arange(3000, 4095 + k))[1:] == [(4096, 4094 + k, False)]
    assert _plan(0.6, 20_000.0, 0.01, 100 * np.arange(k - 1)) == [(0, 100 * (k - 2), False)]
    assert _plan(0.6, 20_000.0, 0.01, 100 * np.arange(k)) == [(0, 100 * (k - 1), True)]
    for count in (k - 1, k):
        m = 100 * np.arange(count)
        values = zc.zeta_on_line(0.6, 20_000.0, 0.01, m)
        pick = [0, count // 2, count - 1]
        _assert_contract(0.6, 20_000.0 + 0.01 * m[pick], values[pick])
    # one height at t = 2.9e4 sums its own terms once
    assert _plan(0.6, 29_000.0, 1.0, [0]) == [(0, 0, False)]
    assert zc.progression_cost(0.6, 29_000.0, 1.0, np.array([0])) == (1, zc._em_term_count(0.6, 29_000.0))


def test_progression_merges_short_recurrence_pieces():
    # meansquare's deep line at step 3: the block below 512 and the two short
    # bands above it make one block with the term count of t = 1500
    m = np.arange(1, 501)
    assert _plan(0.9, 0.0, 3.0, m) == [(1, 500, False)]
    assert zc.progression_cost(0.9, 0.0, 3.0, m) == (500, 500 * zc._em_term_count(0.9, 1500.0))
    pick = np.array([0, 169, 170, 340, 341, 499])
    _assert_contract(0.9, 3.0 * m[pick], zc.zeta_on_line(0.9, 0.0, 3.0, m)[pick])
    # below t = 0 the largest |t| is in the first block joined, not the last
    assert zc.progression_cost(0.9, 0.0, 3.0, -m) == (500, 500 * zc._em_term_count(0.9, 1500.0))
    _assert_contract(0.9, -3.0 * m[pick], zc.zeta_on_line(0.9, 0.0, 3.0, -m)[pick])
    # at step 4 the third band is a NUFFT segment, which is never merged
    assert _plan(0.9, 0.0, 4.0, m) == [(1, 255, False), (256, 500, True)]
    # 400 heights below 512 and 150 in [600, 900) exceed one block; 300 and
    # 150 do not
    sparse = 600 + 2 * np.arange(150)
    assert _plan(0.75, 0.5, 1.0, np.r_[np.arange(400), sparse]) == [(0, 399, False), (600, 898, False)]
    assert _plan(0.75, 0.5, 1.0, np.r_[np.arange(300), sparse]) == [(0, 898, False)]
    # never across t = 0: heights -1200, -600, 600, 1200 make two blocks
    assert _plan(0.75, 0.0, 600.0, [-2, -1, 1, 2]) == [(-2, -1, False), (1, 2, False)]


def test_progression_gathers_beatty_and_swap_subsets():
    pair = BeattyPair.from_alpha(GOLDEN)
    k = np.arange(1, 4001)
    rng = np.random.default_rng(17)
    for m in (beatty_terms(GOLDEN, k.astype(np.float64)).astype(np.int64), sigma_alpha(pair, k)):
        values = zc.zeta_on_line(0.75, 10.5, 1.0, m)
        pick = np.unique(np.r_[0, np.argmin(m), np.argmax(m), m.size - 1, rng.integers(0, m.size, 8)])
        _assert_contract(0.75, 10.5 + m[pick], values[pick])


def test_progression_independent_of_threads():
    # one thread: a rerun gives the same bytes.  Heights 400.35 + 0.7 m: the
    # fallback blocks, then three NUFFT bands
    m = np.arange(-3, 4000)
    first = zc.zeta_on_line(0.75, 400.35, 0.7, m)
    assert first.shape == m.shape
    assert zc.zeta_on_line(0.75, 400.35, 0.7, m).tobytes() == first.tobytes()
    assert zc.zeta_on_line(0.75, 400.35, 0.7, np.empty(0, dtype=np.int64)).size == 0


def test_progression_cold_log_cache_matches_warm(monkeypatch):
    # the pieces grow the log cache from 32 entries to their term counts
    m = np.arange(1, 12_000)
    monkeypatch.setattr(zc, "_LOG_CACHE", np.log(np.arange(1.0, 33.0)))
    cold = zc.zeta_on_line(0.75, 0.5, 1.0, m)
    assert zc._LOG_CACHE.size > 32
    assert zc.zeta_on_line(0.75, 0.5, 1.0, m).tobytes() == cold.tobytes()


def test_progression_checks_points_and_crosses_zero():
    with pytest.raises(OutOfDomain, match=r"\(0\.5\+30010j\)"):
        zc.zeta_on_line(0.5, 29_990.0, 1.0, np.array([1, 5, 20, 30, 40]))
    with pytest.raises(PoleAt1, match=r"\(1\+0j\)"):
        zc.zeta_on_line(1.0, -2.0, 1.0, np.array([0, 2, 5]))
    # the check works on real parts, so no inf * 1j turns into NaN on the way
    with pytest.raises(OutOfDomain, match=r"\(0\.75\+infj\)"):
        zc.zeta_on_line(0.75, math.inf, 1.0, np.arange(1, 5))
    # only requested heights below 512 are evaluated: t = 0 is skipped here
    m = np.array([0, 2])
    _assert_contract(1.0, -1.0 + m, zc.zeta_on_line(1.0, -1.0, 1.0, m))
    # a line through t = 0 is cut there: NUFFT below -512 and above 512
    m = np.arange(2001)
    assert [nufft for _, _, nufft in _plan(0.5, -1_000.0, 1.0, m)] == [True, False, False, True]
    check = np.array([0, 1, 488, 489, 1000, 1511, 1512, 1999, 2000])
    values = zc.zeta_on_line(0.5, -1_000.0, 1.0, m)
    _assert_contract(0.5, -1_000.0 + check, values[check])


def test_progression_working_memory_bounded():
    m = np.arange(1, 2002)
    zc.zeta_on_line(0.6, 28_000.5, 0.5, m[-2:])  # grow the log cache
    tracemalloc.start()
    try:
        zc.zeta_on_line(0.6, 28_000.5, 0.5, m)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # three (chunk, 2 msp) spreading buffers and change; spreading all
    # ~1.2e4 sources at once would take 3 MB for each of them
    assert peak < 4 * zc._SPREAD_CHUNK * 2 * zc._SPREAD * 8 + 2**20
