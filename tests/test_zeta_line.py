"""zeta_grid's two paths, the product grid and the scalar kernel point by
point, and the line kernel zeta_on_line, whose every piece is a NUFFT
segment: the plan's cuts at doubling heights and t = 0, accuracy against
mpmath from t -> 0 to the top of the strip, determinism on rerun and from
a cold log cache, working memory, and equivalence of the scans with a
direct exp-per-term summation."""

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


# both ends of the block and points between
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
    for shape in ((0,), (0, 5), (5, 0)):  # no point to name
        empty = zc.zeta_grid(np.empty(shape, dtype=np.complex128))
        assert empty.shape == shape and empty.dtype == np.complex128
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
        "bergman-default": ep.Rectangle(0.55, 0.95, 0.05, 1.05).midpoint_grid(0.01),  # 40 x 100
        "row": np.add.outer(np.array([0.75]), 1j * np.linspace(10.0, 20.0, 7)),
        "column": np.add.outer(np.linspace(-0.5, 2.0, 9), 1j * np.array([30.0])),
        "single": np.array([[0.3 + 5.0j]]),
    }


@pytest.mark.parametrize("case", sorted(_product_cases()))
def test_product_grid_against_mpmath(monkeypatch, case):
    grid = _product_cases()[case]

    def no_point(s):
        raise AssertionError("a product grid ran point by point")

    monkeypatch.setattr(zc, "_zeta_point", no_point)
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


def test_other_arrays_run_point_by_point(monkeypatch):
    def no_product(s, x, y):
        raise AssertionError("the product path ran")

    monkeypatch.setattr(zc, "_product_grid", no_product)
    calls = []
    point = zc._zeta_point
    monkeypatch.setattr(zc, "_zeta_point", lambda s: calls.append(s) or point(s))
    grid = _product_cases()["bergman"]
    nudged_re, nudged_im = grid.copy(), grid.copy()
    nudged_re[5, 7] += 1e-9  # Re s no longer constant along its row
    nudged_im[9, 3] += 1e-9j  # Im s no longer constant down its column
    arrays = {
        "nudged-re": nudged_re,
        "nudged-im": nudged_im,
        "transposed": grid.T,  # Re s along the columns
        "3-D": grid.reshape(2, 32, 80),
        "below-zero": 0.75 - 1j * np.linspace(5.0, 50.0, 40),
    }
    for name, points in arrays.items():
        calls.clear()
        values = zc.zeta_grid(points)
        assert calls == points.ravel().tolist(), name
        assert values.tobytes() == np.array([zc.zeta(s) for s in points.ravel().tolist()]).tobytes(), name


def test_working_memory_bounded_for_scattered_block():
    heights = np.sort(np.random.default_rng(5).uniform(9_000.0, 10_000.0, 512))
    n_terms = zc._em_term_count(0.5, heights[-1])
    zc.zeta_grid(0.5 + 1j * heights[-2:])  # grow the log cache
    tracemalloc.start()
    try:
        zc.zeta_grid(0.5 + 1j * heights)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # a few rows of n_terms complex values at a time, where the whole
    # block at once would take 512 of them
    assert peak < 4 * 16 * n_terms + 2**16


def _criterion_10_and_11():
    grid = ss.VerticalGrid(s=0.75 + 0j, h=1.0, l=1)
    hits, max_dev, _ = ss.scan_disk_hits(grid, ss.TargetDisk(a=1.0 + 0j, epsilon=0.6), 10**4)
    flip_grid = ss.VerticalGrid(s=complex(0.3, 50.0), h=1.0, l=2)
    flip = ss.left_half_flip(flip_grid, r=1.0, c=1.0, N=10**4)
    return dict(zip(hits.tolist(), max_dev.tolist())), flip


def _direct_progression(sigma, t0, delta, m):
    """zeta on the progression by zeta_grid on its 1-D array of points,
    which sums exp per term at each point."""
    return zc.zeta_grid(sigma + 1j * (t0 + delta * np.asarray(m)))


def test_scans_match_direct_summation(monkeypatch):
    hits, flip = _criterion_10_and_11()
    monkeypatch.setattr(zc, "zeta_on_line", _direct_progression)
    ref_hits, ref_flip = _criterion_10_and_11()
    assert sorted(hits) == sorted(ref_hits)
    assert max(abs(hits[n] - ref_hits[n]) for n in hits) < 1e-10
    assert flip.predicted_hits == ref_flip.predicted_hits
    assert flip.confirmed_hits == ref_flip.confirmed_hits
    assert flip.disagreements == ref_flip.disagreements


def _assert_contract(sigma, heights, values):
    for t, value in zip(heights, values):
        exact = complex(mpmath.zeta(mpmath.mpc(sigma, t)))
        assert abs(value - exact) / max(1.0, abs(exact)) < _contract(sigma, t), (sigma, t)


# the cuts at doubling heights, from the band [0.25, 0.5) up
_EDGES = [2.0**b for b in range(-1, 15)]


def _plan(sigma, t0, delta, m):
    """(first m, last m) for each NUFFT segment of the progression plan."""
    u, _, pieces = zc._progression_plan(sigma, t0, delta, np.asarray(m))
    return [(int(u[i]), int(u[j - 1])) for i, j, _ in pieces]


@pytest.mark.parametrize("sigma", [-0.9, 0.3, 0.5, 0.75, 1.0])
def test_progression_segment_edges_against_mpmath(sigma):
    # a line from t = 0.25 to 16 384 + 74.75: just below and at every edge,
    # the first and last height of each NUFFT segment and the extreme modes
    # of its transform, up to the last height of a 300-point top segment
    delta = 0.25
    m = np.arange(1, round(_EDGES[-1] / delta) + 300)
    check = np.array([round(edge / delta) + k for edge in _EDGES for k in (-1, 0)] + [m[-1]])
    values = zc.zeta_on_line(sigma, 0.0, delta, m)
    _assert_contract(sigma, delta * check, values[check - m[0]])


@pytest.mark.parametrize("sigma", [-0.99, -0.5, 0.3, 1.0])
def test_progression_through_zero_against_mpmath(sigma):
    # heights -3.01, -2.99, .. 2.99: every band from [2, 4) down to
    # [2^-7, 2^-6) on both sides of t = 0, each checked at every height
    heights = -3.01 + 0.02 * np.arange(301)
    _assert_contract(sigma, heights, zc.zeta_on_line(sigma, -3.01, 0.02, np.arange(301)))


def test_progression_plan_cuts_at_doubling_heights():
    # heights 500 .. 2249.5: one NUFFT segment per band [256, 512),
    # [512, 1024), [1024, 2048), [2048, 2249.5]
    m = np.arange(1000, 4500)
    assert _plan(0.75, 0.0, 0.5, m) == [(1000, 1023), (1024, 2047), (2048, 4095), (4096, 4499)]
    terms = [n for _, _, n in zc._progression_plan(0.75, 0.0, 0.5, m)[2]]
    assert terms == [zc._em_term_count(0.75, 0.5 * top) for top in (1023, 2047, 4095, 4499)]
    # the bands go on doubling down to t -> 0
    assert _plan(0.75, 0.0, 0.25, np.arange(1, 40)) == [
        (1, 1), (2, 3), (4, 7), (8, 15), (16, 31), (32, 39)
    ]
    # a band longer than _SEGMENT_POINTS heights is cut into runs
    assert _plan(0.75, 16_384.0, 0.25, np.arange(40_000)) == [(0, 32_767), (32_768, 39_999)]


def test_progression_short_segments_stay_on_the_nufft():
    # a band's segment with few requested heights is still one NUFFT
    # segment, which computes the whole span of m it covers
    for k in (199, 200):
        assert _plan(0.75, 0.0, 0.5, np.arange(3000, 4096 + k))[1:] == [(4096, 4095 + k)]
        m = 100 * np.arange(k)
        assert _plan(0.6, 20_000.0, 0.01, m) == [(0, 100 * (k - 1))]
        assert zc.progression_cost(0.6, 20_000.0, 0.01, m) == (
            100 * (k - 1) + 1, zc._em_term_count(0.6, 20_000.0 + 0.01 * m[-1]))
        values = zc.zeta_on_line(0.6, 20_000.0, 0.01, m)
        pick = [0, k // 2, k - 1]
        _assert_contract(0.6, 20_000.0 + 0.01 * m[pick], values[pick])
    # one height at t = 2.9e4 is a segment of one height
    assert _plan(0.6, 29_000.0, 1.0, [0]) == [(0, 0)]
    assert zc.progression_cost(0.6, 29_000.0, 1.0, np.array([0])) == (1, zc._em_term_count(0.6, 29_000.0))


def test_progression_short_bands_are_separate_segments():
    # meansquare's deep line at step 3: one segment per band, each with the
    # term count of its own largest |t|
    m = np.arange(1, 501)
    tops = (1, 2, 5, 10, 21, 42, 85, 170, 341, 500)
    assert _plan(0.9, 0.0, 3.0, m) == list(zip((1,) + tuple(k + 1 for k in tops[:-1]), tops))
    cost = (500, sum(zc._em_term_count(0.9, 3.0 * k) for k in tops))
    assert zc.progression_cost(0.9, 0.0, 3.0, m) == cost
    pick = np.array([0, 169, 170, 340, 341, 499])
    _assert_contract(0.9, 3.0 * m[pick], zc.zeta_on_line(0.9, 0.0, 3.0, m)[pick])
    # below t = 0 the bands mirror those above
    assert zc.progression_cost(0.9, 0.0, 3.0, -m) == cost
    _assert_contract(0.9, -3.0 * m[pick], zc.zeta_on_line(0.9, 0.0, 3.0, -m)[pick])
    # 400 heights below 512 and 150 in [600, 900): the band [512, 1024)
    # computes the 299 heights from 600.5 to 898.5
    sparse = 600 + 2 * np.arange(150)
    assert _plan(0.75, 0.5, 1.0, np.r_[np.arange(400), sparse])[-2:] == [(256, 399), (600, 898)]
    # never across t = 0: heights -1200, -600, 600, 1200 make four segments
    assert _plan(0.75, 0.0, 600.0, [-2, -1, 1, 2]) == [(-2, -2), (-1, -1), (1, 1), (2, 2)]


def test_progression_gathers_beatty_and_swap_subsets():
    pair = BeattyPair.from_alpha(GOLDEN)
    k = np.arange(1, 4001)
    rng = np.random.default_rng(17)
    for m in (beatty_terms(GOLDEN, k.astype(np.float64)).astype(np.int64), sigma_alpha(pair, k)):
        values = zc.zeta_on_line(0.75, 10.5, 1.0, m)
        pick = np.unique(np.r_[0, np.argmin(m), np.argmax(m), m.size - 1, rng.integers(0, m.size, 8)])
        _assert_contract(0.75, 10.5 + m[pick], values[pick])


def test_progression_independent_of_threads():
    # one thread: a rerun gives the same bytes.  Heights 400.35 + 0.7 m:
    # the bands [256, 512) to [2048, 4096)
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
    # t = 0 is never evaluated unless requested: at Re s = 1 it is the pole
    m = np.array([0, 2])
    assert _plan(1.0, -1.0, 1.0, m) == [(0, 0), (2, 2)]
    _assert_contract(1.0, -1.0 + m, zc.zeta_on_line(1.0, -1.0, 1.0, m))
    # a line through t = 0 is cut there, and t = 0 is a segment of its own,
    # between ten doubling bands on each side
    m = np.arange(2001)
    plan = _plan(0.5, -1_000.0, 1.0, m)
    assert len(plan) == 21 and plan[0] == (0, 488) and plan[10] == (1000, 1000)
    assert plan == [(2000 - last, 2000 - first) for first, last in reversed(plan)]
    check = np.array([0, 1, 488, 489, 1000, 1511, 1512, 1999, 2000])
    values = zc.zeta_on_line(0.5, -1_000.0, 1.0, m)
    _assert_contract(0.5, -1_000.0 + check, values[check])


@pytest.mark.parametrize("sigma, t0, delta, count", [
    (0.75, 0.5, 1.0, 100),  # inside the strip
    (0.75, 29_990.0, 1.0, 100),  # leaves it at m = 11
    (0.75, 29_999.0, 1.0, 1),  # t = T_MAX is inside
    (0.75, -30_005.0, 1.0, 100),  # enters it at m = 5
    (50.0, 1.0, 1.0, 3),
    (0.75, math.inf, 1.0, 5),
    (0.75, math.nan, 1.0, 5),
    (1.0 - 1e-13, -5.0, 1.0, 40_000),  # the pole at m = 5 before t = T_MAX
    (1.0 - 1e-13, -1e-11, 1e-13, 1000),  # a run of m near the pole
    (1.0 - 1e-13, 0.3, 0.5, 10),  # t steps over 0
    (1.0 - 2e-12, -3.0, 1.0, 10),  # t = 0, outside the guard disk
])
def test_check_progression_names_what_check_points_names(sigma, t0, delta, count):
    def refusal(check, *args):
        try:
            check(*args)
        except (OutOfDomain, PoleAt1) as exc:
            return type(exc), str(exc)
        return None

    assert (refusal(zc.check_progression, sigma, t0, delta, count)
            == refusal(zc.check_points, sigma, t0 + delta * np.arange(1, count + 1)))


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
