import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import ks_2samp

from zetalab import euler_product as ep
from zetalab import zeta_core as zc
from zetalab.cli import run
from zetalab.errors import HypothesisViolation, PointOnBoundary, VanishingFactor

TWO_PI_OVER_LOG2 = 2 * math.pi / math.log(2.0)


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
        assert abs(ep.zeta_m(lvl, 2.0) - math.pi ** 2 / 6) < 1e-4
        assert abs(ep.zeta_m(lvl, 3.0) - zc.zeta(3.0)) < 1e-8

    def test_monotone_truncation_error_real_axis(self):
        # on the real axis every factor exceeds 1, so zeta_m increases to zeta
        target = math.pi ** 2 / 6
        vals = [ep.zeta_m(ep.TruncationLevel.of(m), 2.0).real
                for m in (5, 50, 500)]
        assert vals[0] < vals[1] < vals[2] < target

    def test_rejects_left_half(self):
        with pytest.raises(ValueError):
            ep.zeta_m(ep.TruncationLevel.of(5), -0.5 + 3j)


class TestRandomPhase:
    def test_all_ones_reduces_to_zeta_m(self):
        lvl = ep.TruncationLevel.of(50)
        ones = ep.RandomPhase.all_ones(lvl)
        s = 0.75 + 2j
        assert abs(ep.random_zeta_m(lvl, ones, s) - ep.zeta_m(lvl, s)) < 1e-14

    def test_vertical_shift_twist(self):
        lvl = ep.TruncationLevel.of(40)
        tau = 3.7
        twisted = ep.RandomPhase.vertical_shift(lvl, tau)
        s = 0.8 + 1j
        assert abs(ep.random_zeta_m(lvl, twisted, s) - ep.zeta_m(lvl, s + 1j * tau)) < 1e-12

    def test_seeded_regression_anchor(self):
        # frozen after the first run; guards the RNG stream and the product
        lvl = ep.TruncationLevel.of(100)
        phase = ep.RandomPhase.sample(lvl, seed=42)
        value = ep.random_zeta_m(lvl, phase, 0.75)
        assert abs(value - (0.41658846659495596 - 0.7335811075474101j)) < 1e-13

    def test_unit_modulus_enforced(self):
        with pytest.raises(ValueError):
            ep.RandomPhase(phases=np.array([0.5 + 0j]), seed=0)

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_product_never_zero_generic_seed(self, seed):
        lvl = ep.TruncationLevel.of(30)
        phase = ep.RandomPhase.sample(lvl, seed)
        value = ep.random_zeta_m(lvl, phase, 0.6)
        assert abs(value) > 0

    def test_vanishing_factor_guard(self):
        # at s = 0 with omega = 1 the factor 1 - omega p^{-s} vanishes
        lvl = ep.TruncationLevel.of(1)
        with pytest.raises(VanishingFactor):
            ep.random_zeta_m(lvl, ep.RandomPhase.all_ones(lvl), 0.0 + 0.0j)


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

    def test_sigma_range_enforced(self):
        shifts = np.arange(1, 11, dtype=np.float64)
        for sigma in (0.5, 1.0, 1.2):
            with pytest.raises(ValueError):
                ep.mean_square_discrete(ep.TruncationLevel.of(5), sigma, shifts, 10)

    def test_irregular_shifts_refused(self):
        shifts = np.array([1.0, 1.001, 2.0, 3.0])
        with pytest.raises(HypothesisViolation):
            ep.mean_square_discrete(ep.TruncationLevel.of(5), 0.75, shifts, 4)
        stat = ep.mean_square_discrete(
            ep.TruncationLevel.of(5), 0.75, shifts, 4, allow_irregular=True
        )
        assert stat.value >= 0


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
        assert rep.max_ks < 0.05

    def test_resonant_step_fails_badly(self):
        # h = 2 pi / log 2 freezes the prime-2 phase: the orbit degenerates
        rep = ep.empirical_limit_theorem(
            ep.TruncationLevel.of(1), TWO_PI_OVER_LOG2, 0.75, 2_000, 2_000, seed=42
        )
        generic = ep.empirical_limit_theorem(
            ep.TruncationLevel.of(1), math.sqrt(2.0), 0.75, 2_000, 2_000, seed=42
        )
        assert rep.max_ks > 5 * generic.max_ks
        assert rep.max_ks > 0.9

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

    def test_validation(self):
        lvl = ep.TruncationLevel.of(5)
        with pytest.raises(ValueError):
            ep.empirical_limit_theorem(lvl, 1.0, 1.5, 10, 10, 0)
        with pytest.raises(ValueError):
            ep.empirical_limit_theorem(lvl, 0.0, 0.75, 10, 10, 0)
