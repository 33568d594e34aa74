import cmath
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zetalab import dirichlet as dl
from zetalab.cli import run
from zetalab.errors import DivergentRegion, SampleBelowBound

TWO_PI_OVER_LOG2 = 2 * math.pi / math.log(2.0)


def _zeta_pair(t1=0.0, t2=0.0, delta1=1.0, delta2=2.0):
    f = dl.constant_one()
    return f, f, dl.Progression(t1, delta1), dl.Progression(t2, delta2)


class TestCoeffFn:
    def test_bound_enforced(self):
        f = dl.BoundedCoeffFn(eval=lambda m: 1.0 * m, bound_B=2.0)
        assert f.values(np.array([1, 2])).tolist() == [1.0, 2.0]
        with pytest.raises(ValueError, match=r"\|f\(3\)\| = 3.0 exceeds declared bound 2.0"):
            f.values(np.array([2, 3]))

    def test_power_of_two_support(self):
        f = dl.power_of_two_indicator()
        assert f.values(np.array([1, 4, 6])).tolist() == [1.0, 1.0, 0.0]
        assert f.nonzero_mask(np.array([8, 12])).tolist() == [True, False]


class TestPermutation:
    def test_identity_prefix(self):
        ident = dl.identity_permutation()
        assert [ident(n) for n in range(1, 51)] == list(range(1, 51))

    def test_transposition(self):
        tau = dl.transposition(2, 5)
        assert tau(2) == 5 and tau(5) == 2 and tau(3) == 3
        assert sorted(tau(n) for n in range(1, 11)) == list(range(1, 11))

    def test_non_positive_image_rejected(self):
        bad = dl.Permutation(lambda n: n - 1)
        with pytest.raises(ValueError):
            bad(1)


class TestDirichletEval:
    def test_zeta_specialisation(self):
        value, tail = dl.dirichlet_eval(dl.constant_one(), 2.0, 4000)
        assert abs(value + tail / 2 - math.pi ** 2 / 6) < tail
        assert abs(value - math.pi ** 2 / 6) < tail * 1.01

    def test_tail_formula(self):
        _, tail = dl.dirichlet_eval(dl.constant_one(), 3.0, 100)
        assert abs(tail - 100 ** (-2.0) / 2.0) < 1e-15

    def test_divergent_region(self):
        with pytest.raises(DivergentRegion):
            dl.dirichlet_eval(dl.constant_one(), 1.0, 10)

    @pytest.mark.parametrize("n_terms", [0, -3])
    def test_refuses_fewer_than_one_term(self, n_terms):
        with pytest.raises(ValueError, match=f"n_terms must be at least 1, got {n_terms}"):
            dl.dirichlet_eval(dl.constant_one(), 2.0, n_terms)

    def test_pow2_series_closed_form(self):
        # sum over powers of two of 2^{-ks} at s=2 is sum 4^{-k} = 4/3
        value, tail = dl.dirichlet_eval(dl.power_of_two_indicator(), 2.0, 1 << 12)
        assert abs(value - 4.0 / 3.0) < 1e-7


class TestPhiAndMu:
    def test_phi_at_m_1_always_zero_for_equal_f(self):
        f1, f2, p1, p2 = _zeta_pair()
        sigma = dl.identity_permutation()
        for n in range(1, 20):
            assert dl.phi_n(f1, f2, p1, p2, sigma, n, 1) == 0

    def test_mu_2_for_distinct_deltas(self):
        f1, f2, p1, p2 = _zeta_pair()
        sigma = dl.identity_permutation()
        mu = dl.find_mu(f1, f2, p1, p2, sigma, 1, 50)
        assert mu == 2
        phi = dl.phi_n(f1, f2, p1, p2, sigma, 1, 2)
        expected = cmath.exp(-1j * math.log(2)) - cmath.exp(-2j * math.log(2))
        assert abs(phi - expected) < 1e-15

    def test_mu_none_for_identical_setups(self):
        f1, f2, p1, p2 = _zeta_pair(delta1=1.0, delta2=1.0)
        sigma = dl.identity_permutation()
        assert dl.find_mu(f1, f2, p1, p2, sigma, 3, 200) is None

    def test_resonant_pow2_vanishes(self):
        # with t1 = 2 pi / log 2 every power of two satisfies
        # m^{-i t1} = 1, so indicator coefficients give phi identically 0
        f = dl.power_of_two_indicator()
        p1 = dl.Progression(TWO_PI_OVER_LOG2, TWO_PI_OVER_LOG2)
        p2 = dl.Progression(0.0, TWO_PI_OVER_LOG2)
        sigma = dl.identity_permutation()
        for n in (1, 2, 7):
            assert dl.find_mu(f, f, p1, p2, sigma, n, 1 << 10) is None

    def test_validation(self):
        f1, f2, p1, p2 = _zeta_pair()
        sigma = dl.identity_permutation()
        with pytest.raises(ValueError):
            dl.phi_n(f1, f2, p1, p2, sigma, 0, 2)
        with pytest.raises(ValueError):
            dl.find_mu(f1, f2, p1, p2, sigma, 1, 0)


class TestUniquenessBound:
    def test_certificate_at_n_1(self):
        # frozen closed form: b_1 = 1 + 4 / |2^{-i} - 2^{-2i}|
        f1, f2, p1, p2 = _zeta_pair()
        sigma = dl.identity_permutation()
        cert = dl.uniqueness_bound(f1, f2, p1, p2, sigma, n_max=1, m_max=100)
        assert cert is not None
        assert cert.n == 1 and cert.mu == 2
        phi = cmath.exp(-1j * math.log(2)) - cmath.exp(-2j * math.log(2))
        assert abs(cert.b_n - (1.0 + 4.0 / abs(phi))) < 1e-12
        assert abs(cert.b_n - 6.887944321818825) < 1e-12

    def test_monotone_in_scan_depth(self):
        f1, f2, p1, p2 = _zeta_pair()
        sigma = dl.identity_permutation()
        b_prev = math.inf
        for n_max in (1, 5, 25, 100):
            cert = dl.uniqueness_bound(f1, f2, p1, p2, sigma, n_max, 50)
            assert cert.b <= b_prev + 1e-15
            b_prev = cert.b

    def test_none_when_series_agree(self):
        f1, f2, p1, p2 = _zeta_pair(delta1=1.0, delta2=1.0)
        cert = dl.uniqueness_bound(f1, f2, p1, p2, dl.identity_permutation(), 20, 200)
        assert cert is None

    def test_json_round_trip(self, tmp_path, capsys):
        f1, f2, p1, p2 = _zeta_pair()
        cert = dl.uniqueness_bound(f1, f2, p1, p2, dl.identity_permutation(), 3, 50)
        path = tmp_path / "cert.json"
        assert run(["uniqueness", "--delta1", "1", "--delta2", "2", "--n-max", "3",
                    "--m-max", "50", "--output", str(path)]) == 0
        capsys.readouterr()
        payload = json.loads(path.read_text())["results"]["certificate"]
        assert payload["mu"] == cert.mu
        assert payload["witness_n"] == cert.n
        assert payload["b"] == cert.b and payload["b_n"] == cert.b_n
        assert complex(payload["phi_mu"]["re"], payload["phi_mu"]["im"]) == cert.phi_mu
        assert (payload["scan_n_max"], payload["scan_m_max"]) == cert.scan_limits
        assert payload["tol"] == cert.tol

    @given(
        t1=st.floats(-5.0, 5.0),
        t2=st.floats(-5.0, 5.0),
        d1=st.floats(0.5, 3.0),
        d2=st.floats(0.5, 3.0),
    )
    @settings(max_examples=30, deadline=None)
    def test_b_n_always_above_one(self, t1, t2, d1, d2):
        f1, f2, p1, p2 = _zeta_pair(t1, t2, d1, d2)
        cert = dl.uniqueness_bound(f1, f2, p1, p2, dl.identity_permutation(), 10, 30)
        if cert is not None:
            assert cert.b > 1.0
            assert abs(dl.phi_n(f1, f2, p1, p2,
                                dl.identity_permutation(), cert.n, cert.mu)
                       - cert.phi_mu) == 0


class TestDistinctness:
    def test_samples_beyond_b_stay_distinct(self):
        f1, f2, p1, p2 = _zeta_pair()
        sigma = dl.identity_permutation()
        cert = dl.uniqueness_bound(f1, f2, p1, p2, sigma, 50, 50)
        samples = [cert.b + 0.5, cert.b + 1.0, cert.b + 3.0]
        rep = dl.verify_distinct_beyond_b(cert, f1, f2, p1, p2, sigma, samples)
        assert rep.violations == []
        assert all(d > 0 for d in rep.differences)
        assert all(d >= lb - 1e-9 for d, lb in zip(rep.differences, rep.lower_bounds))

    def test_sample_below_bound_rejected(self):
        f1, f2, p1, p2 = _zeta_pair()
        sigma = dl.identity_permutation()
        cert = dl.uniqueness_bound(f1, f2, p1, p2, sigma, 5, 50)
        with pytest.raises(SampleBelowBound):
            dl.verify_distinct_beyond_b(cert, f1, f2, p1, p2, sigma, [2.0])


def test_progression_delta_positive():
    with pytest.raises(ValueError):
        dl.Progression(0.0, 0.0)


@pytest.mark.parametrize("t, delta, message", [
    (0.0, math.inf, "delta must be finite and positive, got inf"),
    (0.0, math.nan, "delta must be finite and positive, got nan"),
    (math.nan, 1.0, "t must be finite, got nan"),
    (-math.inf, 1.0, "t must be finite, got -inf"),
])
def test_progression_refuses_non_finite(t, delta, message):
    with pytest.raises(ValueError, match=message):
        dl.Progression(t, delta)


# Reference loops in libm, one m at a time.  They read only f.eval,
# f.support_hint and f.bound_B, and share no code with zetalab.dirichlet.
def _coeff(f, m):
    if f.support_hint is not None and not f.support_hint(m):
        return 0j
    value = complex(f.eval(m))
    if abs(value) > f.bound_B * (1.0 + 1e-12):
        raise ValueError(f"|f({m})| = {abs(value)} exceeds declared bound {f.bound_B}")
    return value


def _dirichlet_eval_loop(f, s, n_terms):
    """sum f(m) m^{-s} over m <= n_terms, its libm terms summed exactly, and
    a tolerance for a float sum against it: each term rounds by about
    |s| log m eps relative in either code, and a float sum of n_terms terms
    adds about log2(n_terms) eps relative to each term."""
    s, eps = complex(s), math.ulp(1.0)
    terms, slack = [], 0.0
    for m in range(1, n_terms + 1):
        z = _coeff(f, m) * cmath.exp(-s * math.log(m))
        terms.append(z)
        slack += (2.0 * abs(s) * math.log(m) + math.log2(n_terms) + 4.0) * eps * abs(z)
    return complex(math.fsum(z.real for z in terms), math.fsum(z.imag for z in terms)), slack


def _phi_loop(f1, f2, theta1, theta2, m):
    c1, c2 = _coeff(f1, m), _coeff(f2, m)
    if not (c1 or c2):
        return 0j
    log_m = math.log(m)
    return c1 * cmath.exp(-1j * theta1 * log_m) - c2 * cmath.exp(-1j * theta2 * log_m)


def _find_mu_loop(f1, f2, p1, p2, sigma, n, m_max, tol=dl.DEFAULT_TOL):
    theta1, theta2 = p1.t + p1.delta * n, p2.t + p2.delta * sigma.forward(n)
    phases = abs(theta1) + abs(theta2)
    for m in range(1, m_max + 1):
        guard = tol + 16.0 * math.ulp(1.0) * phases * math.log(m + 1)
        if abs(_phi_loop(f1, f2, theta1, theta2, m)) > guard:
            return m
    return None


def _assert_eval_matches_loop(f, s, n_terms):
    reference, slack = _dirichlet_eval_loop(f, s, n_terms)
    assert abs(dl.dirichlet_eval(f, s, n_terms)[0] - reference) <= slack


def _thirds():
    return dl.BoundedCoeffFn(eval=lambda m: np.where(m % 3 == 0, 0.5, 0.25j),
                             bound_B=0.5, support_hint=lambda m: m % 5 != 0)


class TestVectorisedAgainstLoops:
    def test_criterion_6_configs(self):
        # the benchmark's uniqueness experiment: mu and every None verdict
        # exactly, the series within rounding
        f = dl.constant_one()
        p1, p2 = dl.Progression(0.0, 1.0), dl.Progression(0.0, 2.0)
        ident = dl.identity_permutation()
        assert dl.find_mu(f, f, p1, p2, ident, 1, 1000) == 2
        assert _find_mu_loop(f, f, p1, p2, ident, 1, 1000) == 2
        cert = dl.uniqueness_bound(f, f, p1, p2, ident, n_max=1, m_max=1000)
        for k in range(1, 21):
            s = cert.b + 0.5 * k
            for p, n in ((p1, cert.n), (p2, ident(cert.n))):
                _assert_eval_matches_loop(f, s + 1j * p.shift(n), 20000)
        g = dl.power_of_two_indicator()
        step = TWO_PI_OVER_LOG2
        q1, q2 = dl.Progression(step, step), dl.Progression(0.0, step)
        for n in range(1, 101):
            assert dl.find_mu(g, g, q1, q2, ident, n, 10 ** 4) is None
            assert _find_mu_loop(g, g, q1, q2, ident, n, 10 ** 4) is None
        _assert_eval_matches_loop(g, 2.5 + 3j, 5000)

    @given(t1=st.floats(-50.0, 50.0), d1=st.floats(0.1, 5.0), d2=st.floats(0.1, 5.0),
           n=st.integers(1, 40), m_max=st.integers(1, 3000))
    @settings(max_examples=60, deadline=None)
    def test_find_mu_matches_the_loop(self, t1, d1, d2, n, m_max):
        for f1, f2 in ((dl.constant_one(), dl.constant_one()),
                       (dl.power_of_two_indicator(), dl.constant_one()),
                       (_thirds(), dl.constant_one(2.0))):
            p1, p2 = dl.Progression(t1, d1), dl.Progression(0.0, d2)
            sigma = dl.transposition(2, 7)
            mu = dl.find_mu(f1, f2, p1, p2, sigma, n, m_max)
            assert mu == _find_mu_loop(f1, f2, p1, p2, sigma, n, m_max)
            if mu is not None:
                # phi_n(mu) against libm: each term is off by at most
                # B eps (|theta| log mu + 2) in either code
                theta1, theta2 = t1 + d1 * n, d2 * sigma.forward(n)
                bound = max(f1.bound_B, f2.bound_B)
                err = 4.0 * bound * math.ulp(1.0) * ((abs(theta1) + abs(theta2)) * math.log(mu) + 2.0)
                assert abs(dl.phi_n(f1, f2, p1, p2, sigma, n, mu)
                           - _phi_loop(f1, f2, theta1, theta2, mu)) <= err

    def test_resonant_scans_match_the_loop(self):
        # near-cancelling phases: the roundoff guard decides every m
        f = dl.constant_one()
        for n in (1, 5, 40):
            for d in (1.0, 1.0 + 1e-13, 1.0 + 1e-9):
                p1, p2 = dl.Progression(3.0, 1.0), dl.Progression(3.0, d)
                ident = dl.identity_permutation()
                assert dl.find_mu(f, f, p1, p2, ident, n, 4000) == \
                    _find_mu_loop(f, f, p1, p2, ident, n, 4000)

    def test_array_calls_match_scalar_calls(self):
        f = _thirds()
        m = np.arange(1, 200)
        assert f.values(m).tolist() == [complex(f.eval(k)) for k in range(1, 200)]
        assert f.nonzero_mask(m).tolist() == [f.support_hint(k) for k in range(1, 200)]
        _assert_eval_matches_loop(f, 2.0 + 1j, 3000)

    def test_array_call_checks_the_bound(self):
        f = dl.BoundedCoeffFn(eval=lambda m: m / 100.0, bound_B=1.0)
        assert f.values(np.arange(1, 101)).real.max() == 1.0
        with pytest.raises(ValueError, match=r"\|f\(101\)\|"):
            f.values(np.arange(1, 200))
        with pytest.raises(ValueError):
            dl.dirichlet_eval(f, 2.0, 150)
