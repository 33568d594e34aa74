import json
import math
import tracemalloc
from unittest import mock

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import ks_2samp

from zetalab import euler_product as ep
from zetalab import zeta_core as zc
from zetalab.cli import run
from zetalab.errors import HypothesisViolation, PointOnBoundary

TWO_PI_OVER_LOG2 = 2 * math.pi / math.log(2.0)


def _mp_zeta_m(primes, s):
    """prod (1 - p^{-s})^{-1} over `primes` in mpmath at 30 digits."""
    with mpmath.workdps(30):
        s = mpmath.mpc(s.real, s.imag)
        prod = mpmath.mpc(1)
        for p in primes:
            prod *= 1 - mpmath.power(int(p), -s)
        return complex(1 / prod)


def _product_at(level, s):
    """The truncated product at s, as the shifted products compute it."""
    return ep._zeta_m_on_shifts(level, s, np.zeros(1))[0]


def _random_sample(*args):
    """The random products of empirical_limit_theorem(*args), read from the
    arguments of its KS distances."""
    seen = []
    with mock.patch.object(ep, "ks_distance", lambda a, b: seen.append(b) or 0.0):
        ep.empirical_limit_theorem(*args)
    return seen[0] + 1j * seen[1]


def _outer_zeta_m(level, s0, shifts):
    """The N x m exp/log outer product that the power-row recurrence replaced."""
    lp = level.log_primes
    factors = 1.0 - np.exp(-1j * np.outer(shifts, lp)) * np.exp(-complex(s0) * lp)[None, :]
    return np.exp(-np.log(factors).sum(axis=1))


class TestTruncationLevel:
    def test_of_builds_verified_primes(self):
        lvl = ep.TruncationLevel.of(10)
        assert list(lvl.primes) == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
        assert abs(lvl.log_primes[0] - math.log(2)) < 1e-15

    def test_rejects_non_primes(self):
        with pytest.raises(ValueError):
            ep.TruncationLevel(m=3, primes=np.array([2, 3, 4]))
        with pytest.raises(ValueError):
            ep.TruncationLevel(m=2, primes=np.array([3, 2]))
        with pytest.raises(ValueError):
            ep.TruncationLevel(m=3, primes=np.array([2, 3]))


class TestZetaM:
    def test_converges_to_zeta_for_large_sigma(self):
        # tail of the product over primes above p_2000 ~ 17000 is O(1e-5)
        lvl = ep.TruncationLevel.of(2000)
        assert abs(_product_at(lvl, 2.0) - math.pi ** 2 / 6) < 1e-4
        assert abs(_product_at(lvl, 3.0) - zc.zeta(3.0)) < 1e-8

    def test_monotone_truncation_error_real_axis(self):
        # on the real axis every factor exceeds 1, so the product increases to zeta
        target = math.pi ** 2 / 6
        vals = [_product_at(ep.TruncationLevel.of(m), 2.0).real
                for m in (5, 50, 500)]
        assert vals[0] < vals[1] < vals[2] < target


class TestRandomPhase:
    def test_vertical_shift_twist(self):
        # phases omega(p) = p^{-i tau} turn the random product at s into the
        # truncated product at s + i tau
        lvl = ep.TruncationLevel.of(40)
        tau, s = 3.7, 0.8 + 1j
        factors = 1.0 - np.exp(-1j * tau * lvl.log_primes) * np.exp(-s * lvl.log_primes)
        twisted = np.exp(-ep._log_product(factors, s.real))
        assert abs(twisted - ep._zeta_m_on_shifts(lvl, s, np.array([tau]))[0]) < 1e-12

    def test_seeded_regression_anchor(self):
        # frozen after the first run; guards the RNG stream and the product
        value = _random_sample(ep.TruncationLevel.of(100), 1.0, 0.75, 1, 1, 42)[0]
        assert abs(value - (0.41658846659495596 - 0.7335811075474101j)) < 1e-13

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_product_never_zero_generic_seed(self, seed):
        sample = _random_sample(ep.TruncationLevel.of(30), 1.0, 0.6, 1, 4, seed)
        assert np.all(np.abs(sample) > 0)


class TestZetaMOnShifts:
    # restart-tile edges (_RESTART = 64) and the last point
    EDGES = (0, 1, 62, 63, 64, 65, 127, 128, 150, 199)

    def _max_rel_to_mpmath(self, m, s0, shifts):
        lvl = ep.TruncationLevel.of(m)
        got = ep._zeta_m_on_shifts(lvl, s0, shifts)
        assert got.shape == shifts.shape
        errs = []
        for i in self.EDGES:
            ref = _mp_zeta_m(lvl.primes, complex(s0) + 1j * shifts[i])
            errs.append(abs(got[i] - ref) / abs(ref))
        return max(errs)

    # bounds about 4x the largest relative errors measured (1.8e-13 for
    # shifts below 1.2e3, 2.7e-12 near 9e3; the outer product measured the
    # same); the phase of p^{-ix} loses about eps x log p
    def test_progression_against_mpmath(self):
        shifts = 1000.0 + 0.7 * np.arange(200)
        assert self._max_rel_to_mpmath(300, 0.75, shifts) < 1e-12

    def test_high_progression_against_mpmath(self):
        shifts = 9000.0 + math.sqrt(2.0) * np.arange(200)
        assert self._max_rel_to_mpmath(300, 0.6, shifts) < 1e-11

    def test_irregular_shifts_against_mpmath(self):
        shifts = np.sort(np.random.default_rng(1).uniform(0.0, 500.0, 200))
        assert self._max_rel_to_mpmath(300, 0.8, shifts) < 1e-12

    def test_anchor_off_the_real_axis_against_mpmath(self):
        shifts = 3.0 * np.arange(1, 201)
        assert self._max_rel_to_mpmath(300, 0.8 + 0.5j, shifts) < 1e-12

    def test_resonant_step_freezes_the_product(self):
        # m = 1, h = 2 pi / log 2: every 2^{-i n h} is 1, so zeta_1 is constant
        shifts = TWO_PI_OVER_LOG2 * np.arange(1, 201)
        got = ep._zeta_m_on_shifts(ep.TruncationLevel.of(1), 0.75, shifts)
        frozen = 1.0 / (1.0 - 2.0 ** -0.75)
        assert np.max(np.abs(got - frozen)) / frozen < 1e-12
        assert self._max_rel_to_mpmath(1, 0.75, shifts) < 1e-12

    @pytest.mark.parametrize("s0, shifts", [
        (0.9, 3.0 * np.arange(1, 301)),
        (0.75, np.sort(np.random.default_rng(2).uniform(1.0, 900.0, 300))),
        (0.8 + 0.5j, 2.0 * np.arange(1, 301)),
    ])
    def test_matches_outer_product(self, s0, shifts):
        lvl = ep.TruncationLevel.of(2000)
        ref = _outer_zeta_m(lvl, s0, shifts)
        got = ep._zeta_m_on_shifts(lvl, s0, shifts)
        assert np.max(np.abs(got - ref) / np.abs(ref)) < 1e-11

    def test_column_slices_match_outer_product(self, monkeypatch):
        # a small budget cuts the primes into many slices, each with its own
        # chunked products and a short last slice
        lvl = ep.TruncationLevel.of(1000)
        shifts = 2.0 * np.arange(1, 201)
        ref = _outer_zeta_m(lvl, 0.75, shifts)
        monkeypatch.setattr(zc, "_BLOCK_ELEMS", 3000)
        got = ep._zeta_m_on_shifts(lvl, 0.75, shifts)
        assert np.max(np.abs(got - ref) / np.abs(ref)) < 1e-11

    @pytest.mark.parametrize("sigma, m", [(-0.5, 100), (0.0, 100), (0.02, 5000),
                                          (0.75, 5000), (3.0, 5000)])
    def test_chunked_product_matches_log_sum(self, sigma, m):
        # near sigma = 0 the factor of p = 2 dominates and the chunks are
        # short (161 factors at sigma = 0.02); at sigma <= 0 every factor is
        # its own chunk, and m is kept small so that the product stays
        # above the float range
        lvl = ep.TruncationLevel.of(m)
        rng = np.random.default_rng(3)
        phases = np.exp(2j * math.pi * rng.uniform(size=(4, lvl.m)))
        factors = 1.0 - phases * np.exp(-(sigma + 7j) * lvl.log_primes)
        ref = np.exp(-np.log(factors).sum(axis=1))
        got = np.exp(-ep._log_product(factors, sigma))
        assert np.all(np.isfinite(got))
        assert np.max(np.abs(got - ref) / np.abs(ref)) < 1e-11

    def test_partial_products_stay_in_float_range(self):
        # omega = +1 on the first k primes and -1 on the rest, at s = 0.02:
        # the first k factors 1 - p^{-s} multiply to far below the float
        # range and the rest bring the product back near 1, so one running
        # product of all the factors would underflow
        lvl = ep.TruncationLevel.of(5000)
        x = np.exp(-0.02 * lvl.log_primes)
        down, up = np.cumsum(np.log1p(-x)), np.cumsum(np.log1p(x))
        total = down + up[-1] - up  # log of the product with k = 1, 2, ...
        k = int(np.argmin(np.abs(total))) + 1
        assert down[k - 1] < -1000.0
        phases = np.where(np.arange(lvl.m) < k, 1.0, -1.0).astype(np.complex128)
        value = np.exp(-ep._log_product(1.0 - phases * x, 0.02))
        ref = math.exp(-total[k - 1])
        assert abs(value - ref) / ref < 1e-10


class TestMeanSquare:
    def test_decreases_in_m(self):
        shifts = np.arange(1, 201, dtype=np.float64)
        small = ep.mean_square_discrete(ep.TruncationLevel.of(5), 0.75, shifts, 200)
        large = ep.mean_square_discrete(ep.TruncationLevel.of(200), 0.75, shifts, 200)
        assert small.value > large.value
        assert small.mode == "pointwise"

    def test_sup_mode_dominates_pointwise(self):
        shifts = np.arange(1, 101, dtype=np.float64)
        lvl = ep.TruncationLevel.of(50)
        point = ep.mean_square_discrete(lvl, 0.75, shifts, 100)
        grid = np.array([0.75 + 0j, 0.8 + 0.5j, 0.7 + 0.0j])
        sup = ep.mean_square_discrete(lvl, 0.75, shifts, 100, grid=grid)
        assert sup.mode == "sup-on-K"
        assert sup.value >= point.value - 1e-15

    def test_sigma_09_deep_truncation_is_tiny(self):
        shifts = np.arange(1, 2001, dtype=np.float64)
        stat = ep.mean_square_discrete(ep.TruncationLevel.of(10_000), 0.9, shifts, 2000)
        assert stat.value < 1e-4

    def test_deep_truncation_memory(self):
        # criterion 8's deep case; the N x m outer product peaked near 1 GB
        lvl = ep.TruncationLevel.of(10_000)
        shifts = np.arange(1, 2001, dtype=np.float64)
        tracemalloc.start()
        try:
            ep.mean_square_discrete(lvl, 0.9, shifts, 2000)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 150 * 2**20

    def test_sigma_range_enforced(self):
        shifts = np.arange(1, 11, dtype=np.float64)
        for sigma in (0.5, 1.0, 1.2):
            with pytest.raises(ValueError):
                ep.mean_square_discrete(ep.TruncationLevel.of(5), sigma, shifts, 10)

    def test_irregular_shifts_refused(self):
        shifts = np.array([1.0, 1.001, 2.0, 3.0])
        with pytest.raises(HypothesisViolation):
            ep.mean_square_discrete(ep.TruncationLevel.of(5), 0.75, shifts, 4)
        # one nudged shift meets the gap and growth hypotheses but leaves
        # the lattice x_n = h n that the line kernel evaluates
        nudged = 1.5 * np.arange(1, 901)
        nudged[400] = np.nextafter(nudged[400], np.inf)
        with pytest.raises(HypothesisViolation, match="x_n = h n"):
            ep.mean_square_discrete(ep.TruncationLevel.of(50), 0.8, nudged, 900)


class TestRectangleAndBergman:
    def test_boundary_distance(self):
        r = ep.Rectangle(0.0, 2.0, 0.0, 1.0)
        assert r.boundary_distance(1.0 + 0.5j) == 0.5
        assert r.boundary_distance(0.25 + 0.5j) == 0.25
        assert r.area == 2.0

    def test_midpoint_grid_covers(self):
        r = ep.Rectangle(0.0, 1.0, 0.0, 1.0)
        g = r.midpoint_grid(0.25)
        assert g.shape == (4, 4)
        assert abs(g[0, 0] - (0.125 + 0.125j)) < 1e-15

    def test_constant_function_exact(self):
        # for f = c the bound is |c| sqrt(area) / (sqrt(pi) d)
        r = ep.Rectangle(0.0, 1.0, 0.0, 1.0)
        g = r.midpoint_grid(0.01)
        z = 0.5 + 0.5j
        bound = ep.bergman_sup_bound(np.full(g.shape, 3.0), r, z)
        assert abs(bound - 3.0 / (math.sqrt(math.pi) * 0.5)) < 1e-12

    def test_bound_dominates_analytic_value(self):
        # f(z) = z is analytic; the pointwise bound must exceed |f(z)|
        r = ep.Rectangle(-1.0, 1.0, -1.0, 1.0)
        g = r.midpoint_grid(0.005)
        z = 0.1 + 0.1j
        assert ep.bergman_sup_bound(g, r, z) >= abs(z)

    def test_boundary_point_rejected(self):
        r = ep.Rectangle(0.0, 1.0, 0.0, 1.0)
        with pytest.raises(PointOnBoundary):
            ep.bergman_sup_bound(np.ones((4, 4)), r, 0.0 + 0.5j)
        with pytest.raises(ValueError):
            ep.Rectangle(1.0, 1.0, 0.0, 1.0)


class TestKSDistance:
    def test_identical_samples(self):
        a = np.linspace(0, 1, 100)
        assert ep.ks_distance(a, a) == 0.0

    def test_disjoint_samples(self):
        assert ep.ks_distance(np.zeros(10), np.ones(10)) == 1.0

    @given(seed=st.integers(0, 1000))
    @settings(max_examples=25, deadline=None)
    def test_matches_scipy(self, seed):
        rng = np.random.default_rng(seed)
        a = rng.normal(size=80)
        b = rng.normal(0.3, 1.2, size=120)
        assert abs(ep.ks_distance(a, b) - ks_2samp(a, b).statistic) < 1e-12


class TestLimitTheorem:
    def test_generic_step_matches_random_model(self):
        # threshold 0.05 frozen; measured max KS ~ 0.016 on the first run
        rep = ep.empirical_limit_theorem(
            ep.TruncationLevel.of(50), math.sqrt(2.0), 0.75, 10_000, 10_000, seed=42
        )
        assert max(rep.ks_re, rep.ks_im, rep.ks_log_abs) < 0.05

    def test_resonant_step_fails_badly(self):
        # h = 2 pi / log 2 freezes the prime-2 phase: the orbit degenerates
        rep = ep.empirical_limit_theorem(
            ep.TruncationLevel.of(1), TWO_PI_OVER_LOG2, 0.75, 2_000, 2_000, seed=42
        )
        generic = ep.empirical_limit_theorem(
            ep.TruncationLevel.of(1), math.sqrt(2.0), 0.75, 2_000, 2_000, seed=42
        )
        worst = max(rep.ks_re, rep.ks_im, rep.ks_log_abs)
        assert worst > 5 * max(generic.ks_re, generic.ks_im, generic.ks_log_abs)
        assert worst > 0.9

    def test_json_report(self, tmp_path, capsys):
        rep = ep.empirical_limit_theorem(
            ep.TruncationLevel.of(5), 1.0, 0.8, 100, 100, seed=1
        )
        path = tmp_path / "limit.json"
        assert run(["limit-theorem", "--m", "5", "--h", "1", "--sigma", "0.8", "--N", "100",
                    "--trials", "100", "--seed", "1", "--output", str(path)]) == 0
        capsys.readouterr()
        payload = json.loads(path.read_text())["results"]
        assert payload["m"] == 5 and payload["seed"] == 1
        assert payload["s0"] == {"re": 0.8, "im": 0.0}
        assert [payload["ks_re"], payload["ks_im"], payload["ks_log_abs"]] == [
            rep.ks_re, rep.ks_im, rep.ks_log_abs]
        assert "truncated" in payload["note"]

    @pytest.mark.parametrize("block", [1, 12, 35])
    def test_random_sample_independent_of_block(self, monkeypatch, block):
        args = (ep.TruncationLevel.of(6), math.sqrt(2.0), 0.7, 300, 301, 9)
        whole = ep.empirical_limit_theorem(*args)
        monkeypatch.setattr(ep, "_SAMPLE_BLOCK", block)
        assert ep.empirical_limit_theorem(*args) == whole

    def test_random_sample_memory_bounded(self):
        # 2e4 trials x 200 primes: 150 MB of traced allocations when drawn at once
        level = ep.TruncationLevel.of(200)
        ep.empirical_limit_theorem(level, math.sqrt(2.0), 0.75, 100, 10, seed=3)
        tracemalloc.start()
        try:
            ep.empirical_limit_theorem(level, math.sqrt(2.0), 0.75, 100, 20_000, seed=3)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64 * ep._SAMPLE_BLOCK + 2**22  # 20 MB

    def test_validation(self):
        lvl = ep.TruncationLevel.of(5)
        with pytest.raises(ValueError):
            ep.empirical_limit_theorem(lvl, 1.0, 1.5, 10, 10, 0)
        with pytest.raises(ValueError):
            ep.empirical_limit_theorem(lvl, 0.0, 0.75, 10, 10, 0)
