import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zetalab import equidist as eq
from zetalab.beatty import GOLDEN, SQRT2, SQRT3, BeattyPair, beatty_terms
from zetalab.cli import run
from zetalab.errors import AmbiguousFloor, HypothesisViolation

TWO_PI_OVER_LOG2 = 2 * math.pi / math.log(2.0)


class TestCompensatedSum:
    def test_matches_math_fsum(self):
        rng = np.random.default_rng(3)
        xs = rng.uniform(-1, 1, 5000) * 10.0 ** rng.integers(-8, 8, 5000)
        acc = eq.CompensatedSum()
        for x in xs:
            acc.add(complex(x, -x))
        assert abs(acc.value.real - math.fsum(xs)) < 1e-12 * max(1.0, abs(math.fsum(xs)))
        assert acc.value.imag == -acc.value.real

    def test_cancellation_case(self):
        acc = eq.CompensatedSum()
        for x in (1e16, 1.0, -1e16):
            acc.add(complex(x))
        assert acc.value.real == 1.0


class TestFrequencyVector:
    def test_theta_from_primes(self):
        fv = eq.FrequencyVector(primes1={2: 1}, primes2={3: 2}, delta1=1.0, delta2=0.5)
        assert abs(fv.u1 - math.log(2) / (2 * math.pi)) < 1e-15
        assert abs(fv.u2 - 2 * math.log(3) / (2 * math.pi)) < 1e-15

    def test_validation(self):
        with pytest.raises(ValueError):
            eq.FrequencyVector(primes1={2: 0}, primes2={3: 0}, delta1=1.0, delta2=1.0)
        with pytest.raises(ValueError):
            eq.FrequencyVector(primes1={2: 1}, primes2={}, delta1=0.0, delta2=1.0)


class TestWeylSum:
    def test_irrational_rotation_decays(self):
        rep = eq.weyl_sum(lambda n: n * SQRT2, 1.0, 1 << 16)
        assert rep.sum_magnitude < 1e-3
        mags = dict(rep.trajectory)
        assert mags[1 << 16] == rep.sum_magnitude
        # geometric-series ceiling |S_N| <= 1 / |sin(pi beta)|
        ceiling = 1.0 / abs(math.sin(math.pi * SQRT2))
        for n, mag in rep.trajectory:
            assert mag * n <= ceiling + 1e-9

    def test_resonant_beatty_limit_one_half(self):
        # floor(1.5 n) alternates parity with period 2; at freq 1/3 the
        # phases cycle through 6 values whose average has modulus 1/2
        rep = eq.weyl_sum(lambda n: np.floor(1.5 * n), 1.0 / 3.0, 60000)
        assert abs(rep.sum_magnitude - 0.5) < 1e-3

    def test_checkpoints_are_powers_of_two(self):
        rep = eq.weyl_sum(lambda n: n * GOLDEN, 1.0, 5000)
        ns = [n for n, _ in rep.trajectory]
        assert ns[:-1] == [1 << k for k in range(len(ns) - 1)]
        assert ns[-1] == 5000

    def test_validation(self):
        with pytest.raises(ValueError):
            eq.weyl_sum(lambda n: n, 1.0, 0)
        with pytest.raises(ValueError):
            eq.weyl_sum(lambda n: n, 0.0, 10)

    @given(beta=st.floats(0.01, 0.99))
    @settings(max_examples=30, deadline=None)
    def test_magnitude_normalised(self, beta):
        rep = eq.weyl_sum(lambda n: n * beta, 1.0, 512)
        assert 0.0 <= rep.sum_magnitude <= 1.0

    def test_csv(self, tmp_path, capsys):
        rep = eq.weyl_sum(lambda n: n * SQRT2, 1.0, 100)
        path = tmp_path / "weyl.csv"
        assert run(["weyl", "--beta", repr(SQRT2), "--N", "100",
                    "--output", str(path), "--format", "csv"]) == 0
        capsys.readouterr()
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "N,magnitude"
        rows = [(int(n), float(mag)) for n, mag in (ln.split(",") for ln in lines[1:])]
        assert rows == rep.trajectory


class TestJointBeattyWeyl:
    def test_golden_pair_decays(self):
        pair = BeattyPair.from_alpha(GOLDEN)
        fv = eq.FrequencyVector(primes1={2: 1}, primes2={2: 1}, delta1=1.0, delta2=1.0)
        rep = eq.joint_beatty_weyl(pair, 0.0, 0.0, fv, 1 << 17)
        assert rep.sum_magnitude < 1e-3
        for n, mag in rep.trajectory:
            if n >= 8192:
                assert mag < 0.01

    def test_guarded_floor_raises_on_rational(self):
        # exactly-integer products are fine; near-integer ones must be loud
        pair = BeattyPair.from_alpha(2.0 + 1e-12)
        fv = eq.FrequencyVector(primes1={2: 1}, primes2={2: 1}, delta1=1.0, delta2=1.0)
        with pytest.raises(AmbiguousFloor):
            eq.joint_beatty_weyl(pair, 0.0, 0.0, fv, 100)

    def test_resonant_steps_do_not_decay(self):
        # with delta = 2 pi / log 2 and the prime 2, each floor contributes
        # an integer multiple of a full period: the phase reduces to the
        # constant part and the normalised sum stays near 1
        pair = BeattyPair.from_alpha(GOLDEN)
        fv = eq.FrequencyVector(
            primes1={2: 1}, primes2={2: 1},
            delta1=TWO_PI_OVER_LOG2, delta2=TWO_PI_OVER_LOG2,
        )
        rep = eq.joint_beatty_weyl(pair, 0.0, 0.0, fv, 4096)
        assert rep.sum_magnitude > 0.99


class TestValidateShiftSequence:
    def test_accepts_linear(self):
        eq.validate_shift_sequence(np.arange(1, 1000, dtype=float))

    def test_rejects_small_gap(self):
        with pytest.raises(HypothesisViolation):
            eq.validate_shift_sequence(np.array([1.0, 1.001, 2.0]))

    def test_rejects_decreasing(self):
        with pytest.raises(HypothesisViolation):
            eq.validate_shift_sequence(np.array([2.0, 1.0]))

    def test_rejects_superlinear(self):
        with pytest.raises(HypothesisViolation):
            eq.validate_shift_sequence(np.array([1.0, 500.0]))


def _weyl_reference(phase_fn, N, chunk=1 << 17):
    """The allocating chunk loop the buffered one replaced, with the phase
    reduced mod 1 before the exponential as _unit_terms reduces it."""
    acc = eq.CompensatedSum()
    trajectory, next_checkpoint, done = [], 1, 0
    while done < N:
        count = min(chunk, next_checkpoint - done, N - done)
        n = np.arange(done + 1, done + count + 1, dtype=np.float64)
        phase = phase_fn(n)
        acc.add(complex(np.exp(2j * math.pi * (phase - np.floor(phase))).sum()))
        done += count
        if done == next_checkpoint:
            trajectory.append((done, abs(acc.value) / done))
            next_checkpoint *= 2
    if not trajectory or trajectory[-1][0] != N:
        trajectory.append((N, abs(acc.value) / N))
    return min(abs(acc.value) / N, 1.0), trajectory


@pytest.mark.parametrize("N", [1, 1000, 300_001])
def test_weyl_sums_match_the_allocating_loop(N):
    # buffers and in-place phase arithmetic against the expressions they
    # replaced, across chunk boundaries and checkpoints, bit for bit
    rep = eq.weyl_sum(lambda n: n * SQRT2, 0.37, N)
    assert (rep.sum_magnitude, rep.trajectory) == _weyl_reference(lambda n: 0.37 * (n * SQRT2), N)


# the joint sums below: weights with both signs and deltas off 1
_FV = eq.FrequencyVector(primes1={2: 1, 3: -2}, primes2={5: 2, 7: 1}, delta1=0.8, delta2=1.3)
_T1, _T2 = 0.31, 0.77
EPS = 2.0 ** -52


def _joint_bound(pair, n):
    """joint_beatty_weyl's stated bound on |S_n| / n: 4 pi eps M(n) +
    (24 + log2 n) eps, M(n) = |t1 u1| + |t2 u2| + |d1 u1| floor(n a) +
    |d2 u2| floor(n a')."""
    M = (abs(_T1 * _FV.u1) + abs(_T2 * _FV.u2)
         + abs(_FV.delta1 * _FV.u1) * beatty_terms(pair.alpha, np.array([float(n)]))[0]
         + abs(_FV.delta2 * _FV.u2) * beatty_terms(pair.alpha_prime, np.array([float(n)]))[0])
    return 4 * math.pi * EPS * M + (24 + math.log2(n)) * EPS


_TILE_37 = eq._TILE * 5 + 37  # a tile boundary plus 37


@pytest.mark.parametrize("alpha, surds", [  # alpha, alpha' as (p + sqrt D) / r
    (GOLDEN, ((1, 5, 2), (3, 5, 2))),
    (SQRT2, ((0, 2, 1), (2, 2, 1))),
    (SQRT3, ((0, 3, 1), (3, 3, 2))),
    (math.e, None),  # a literal alpha, at its float value
])
def test_joint_sum_meets_its_bound_against_mpmath(alpha, surds):
    # the exact sum at 30 digits, every float input taken as exact and the
    # floors of the surds (or of the float) from mpmath, read at every n
    pair = BeattyPair.from_alpha(alpha)
    with mpmath.workdps(30):
        if surds is None:
            a, b = mpmath.mpf(pair.alpha), mpmath.mpf(pair.alpha_prime)
        else:
            a, b = ((p + mpmath.sqrt(D)) / r for p, D, r in surds)
        t1, t2 = mpmath.mpf(_T1), mpmath.mpf(_T2)
        d1u1, d2u2 = mpmath.mpf(_FV.delta1) * _FV.u1, mpmath.mpf(_FV.delta2) * _FV.u2
        total, exact = mpmath.mpc(0), [None]
        for n in range(1, _TILE_37 + 1):
            fa, fb = mpmath.floor(n * a), mpmath.floor(n * b)
            total += mpmath.expjpi(2 * (t1 * _FV.u1 + t2 * _FV.u2 + d1u1 * fa + d2u2 * fb))
            exact.append(float(abs(total) / n))
    # N = 1; below one tile; one partial tile after the checkpoint 2048;
    # whole tiles and 37 terms after the checkpoint 4096
    for N in (1, 700, 3000, _TILE_37):
        rep = eq.joint_beatty_weyl(pair, _T1, _T2, _FV, N)
        ns = [n for n, _ in rep.trajectory]
        assert ns == [1 << k for k in range(N.bit_length()) if 1 << k < N] + [N]
        for n, mag in rep.trajectory:
            assert abs(mag - exact[n]) <= _joint_bound(pair, n), (N, n)
        assert rep.sum_magnitude == rep.trajectory[-1][1]


def test_joint_sum_matches_the_float_phase_loop_across_a_chunk():
    # 2^17 + 1 terms: the first term of a second chunk, against the
    # exponential-per-term loop, within the same bound
    N = (1 << 17) + 1
    pair = BeattyPair.from_alpha(GOLDEN)

    def phase(n):
        fa = beatty_terms(pair.alpha, n)
        fb = beatty_terms(pair.alpha_prime, n)
        return (_T1 + _FV.delta1 * fa) * _FV.u1 + (_T2 + _FV.delta2 * fb) * _FV.u2

    rep = eq.joint_beatty_weyl(pair, _T1, _T2, _FV, N)
    magnitude, trajectory = _weyl_reference(phase, N)
    assert [n for n, _ in rep.trajectory] == [n for n, _ in trajectory]
    for (n, mag), (_, ref) in zip(rep.trajectory, trajectory):
        assert abs(mag - ref) <= _joint_bound(pair, n), n
    assert abs(rep.sum_magnitude - magnitude) <= _joint_bound(pair, N)


@pytest.mark.parametrize("which", [0, 1])
@pytest.mark.parametrize("error", [1.0, -1.0, math.nan])
def test_a_wrong_floor_raises_instead_of_summing(monkeypatch, which, error):
    # floors of n in [3000, 3064), one tile's middle, off by one: some
    # carry there leaves {0, 1}, which must raise before any key is used
    pair = BeattyPair.from_alpha(GOLDEN)
    bad_alpha = (pair.alpha, pair.alpha_prime)[which]

    def wrong_terms(alpha, m, out=None, scratch=None):
        out = beatty_terms(alpha, m, out=out, scratch=scratch)
        if alpha == bad_alpha:
            out[(m >= 3000) & (m < 3064)] += error
        return out

    monkeypatch.setattr(eq, "beatty_terms", wrong_terms)
    with pytest.raises(AmbiguousFloor, match="tile carry"):
        eq.joint_beatty_weyl(pair, _T1, _T2, _FV, 4096)


def test_unit_terms_take_the_exact_fraction_of_the_phase():
    # a chunk of the benchmark's joint Weyl sums near n = 1.4e6, where the
    # phase reaches 2.5e6 and exp(2 pi i phase) unreduced is off by 1.5e-9
    pair = BeattyPair.from_alpha(GOLDEN)
    fv = eq.FrequencyVector(primes1={2: 1, 3: -2}, primes2={5: 2, 7: 1}, delta1=1.0, delta2=1.0)
    n = np.arange(1_400_000, 1_400_256, dtype=np.float64)
    phase = (0.3 + beatty_terms(pair.alpha, n)) * fv.u1 + (0.6 + beatty_terms(pair.alpha_prime, n)) * fv.u2
    assert np.abs(phase).max() > 2e6
    terms = eq._unit_terms(phase.copy(), np.empty(n.size, dtype=np.complex128))
    with mpmath.workdps(30):
        for p, z in zip(phase, terms):
            frac = mpmath.mpf(float(p)) - mpmath.floor(float(p))  # of the float phase, exactly
            # 2 pi frac rounds by < 7e-16, exp by about one ulp
            assert abs(z - complex(mpmath.expjpi(2 * frac))) < 1e-15, p
