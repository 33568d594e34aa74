import json
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from zetalab import beatty as bt
from zetalab.cli import run
from zetalab.errors import AmbiguousFloor, Unclassifiable


class TestBeattyPair:
    def test_golden_is_self_shifted(self):
        pair = bt.BeattyPair.from_alpha(bt.GOLDEN)
        # conjugate of the golden ratio is golden + 1
        assert abs(pair.alpha_prime - (bt.GOLDEN + 1.0)) < 1e-12

    def test_sqrt2_conjugate(self):
        pair = bt.BeattyPair.from_alpha(bt.SQRT2)
        assert abs(pair.alpha_prime - (2.0 + bt.SQRT2)) < 1e-12

    def test_invariant_enforced(self):
        with pytest.raises(ValueError):
            bt.BeattyPair(alpha=2.0, alpha_prime=3.0)
        with pytest.raises(ValueError):
            bt.BeattyPair.from_alpha(0.5)


class TestBeattyTerm:
    def test_golden_prefix(self):
        # OEIS A000201 prefix, recomputed by hand from the closed form
        expected = [1, 3, 4, 6, 8, 9, 11, 12, 14, 16]
        assert [bt.beatty_term(bt.GOLDEN, m) for m in range(1, 11)] == expected

    def test_exact_integer_product_allowed(self):
        # 2 * 2.5 = 5.0 exactly in floats: no ambiguity
        assert bt.beatty_term(2.5, 2) == 5

    def test_near_integer_guard(self):
        with pytest.raises(AmbiguousFloor):
            bt.beatty_term(2.0 + 1e-12, 1)

    def test_vectorised_guard_names_the_multiplier(self):
        # the scans pass multipliers in chunks: the error names m itself,
        # not its position in the chunk
        m = np.arange(131073, 131076, dtype=np.float64)
        with pytest.raises(AmbiguousFloor, match=r"^131073 \* "):
            bt.beatty_terms(2.0 + 2.0 ** -48, m)
        assert list(bt.beatty_terms(bt.GOLDEN, np.arange(1.0, 11.0))) == [
            bt.beatty_term(bt.GOLDEN, k) for k in range(1, 11)]

    def test_validation(self):
        with pytest.raises(ValueError):
            bt.beatty_term(0.9, 1)
        with pytest.raises(ValueError):
            bt.beatty_term(2.5, 0)


class TestRayleigh:
    @pytest.mark.parametrize("alpha", [bt.GOLDEN, bt.SQRT2, bt.SQRT3, math.pi / 2])
    def test_partition_for_irrationals(self, alpha):
        pair = bt.BeattyPair.from_alpha(alpha)
        rep = bt.rayleigh_partition_check(pair, 10000)
        assert rep.is_partition
        assert rep.count_alpha + rep.count_alpha_prime == 10000

    def test_counts_match_densities(self):
        pair = bt.BeattyPair.from_alpha(bt.SQRT2)
        rep = bt.rayleigh_partition_check(pair, 100000)
        assert abs(rep.count_alpha - 100000 / bt.SQRT2) <= 2

    def test_csv_output(self, tmp_path, capsys):
        out = tmp_path / "partition.csv"
        rest = ["--check", "100", "--output", str(out), "--format", "csv"]
        assert run(["beatty", "--alpha", "golden"] + rest) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "value,class"
        assert len(lines) == 1  # partition holds, nothing to report
        # alpha = 3/2 is rational: both classes are listed, overlaps first
        assert run(["beatty", "--alpha", "1.5"] + rest) == 0
        capsys.readouterr()
        rep = bt.rayleigh_partition_check(bt.BeattyPair.from_alpha(1.5), 100)
        rows = [ln.split(",") for ln in out.read_text().strip().splitlines()[1:]]
        assert rows == [[str(v), "overlap"] for v in rep.overlaps] + [
            [str(v), "gap"] for v in rep.gaps]
        assert rep.overlaps.size and rep.gaps.size

    def test_csv_lists_every_overlap_and_gap(self, tmp_path, capsys):
        out = tmp_path / "partition.csv"
        assert run(["beatty", "--alpha", "1.5", "--check", "10000",
                    "--output", str(out), "--format", "csv"]) == 0
        summary = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        classes = [ln.split(",")[1] for ln in out.read_text().strip().splitlines()[1:]]
        assert classes.count("overlap") == summary["overlaps"] == 3333
        assert classes.count("gap") == summary["gaps"] == 3333

    @given(alpha=st.floats(1.05, 10.0))
    @settings(max_examples=40, deadline=None)
    def test_partition_property(self, alpha):
        pair = bt.BeattyPair.from_alpha(alpha)
        for a in (pair.alpha, pair.alpha_prime):
            # an exact integer m a among the scanned m makes alpha resonant
            # (rational), and the dissection theorem does not apply
            x = np.arange(1, int(2000 / a) + 3, dtype=np.float64) * a
            assume(not np.any(x == np.floor(x)))
        try:
            rep = bt.rayleigh_partition_check(pair, 2000)
        except AmbiguousFloor:
            return  # a near-integer product: the floors cannot be trusted
        # for any non-resonant alpha the union covers with multiplicity 1
        assert rep.overlaps.size == 0 and rep.gaps.size == 0
        assert rep.count_alpha + rep.count_alpha_prime == 2000


class TestSigmaAlpha:
    def test_swaps_classes(self):
        pair = bt.BeattyPair.from_alpha(bt.GOLDEN)
        # floor(1 * golden) = 1 maps to floor(1 * golden') = 2
        assert bt.sigma_alpha(pair, 1) == 2
        assert bt.sigma_alpha(pair, 2) == 1

    def test_is_involution_on_prefix(self):
        for alpha in (bt.GOLDEN, bt.SQRT2, bt.SQRT3):
            pair = bt.BeattyPair.from_alpha(alpha)
            for n in range(1, 500):
                assert bt.sigma_alpha(pair, bt.sigma_alpha(pair, n)) == n

    def test_validation(self):
        pair = bt.BeattyPair.from_alpha(bt.GOLDEN)
        with pytest.raises(ValueError):
            bt.sigma_alpha(pair, 0)


class TestExclusionScan:
    def test_cbrt2_passes(self):
        # 2^(1/3) is cubic, so no quadratic with these coefficients can
        # hit it: the finite scan must come back empty
        alpha = 2.0 ** (1.0 / 3.0)
        hits = bt.exclusion_scan(1.0, 1.0, alpha, k_bound=2, primes=[2, 3],
                                 exponent_bound=1)
        assert hits == []

    def test_golden_is_excluded(self):
        # x^2 - x - 1 = 0 arises from k = (1, 1, -1, 0) for every theta,
        # so any quadratic irrational is caught by the scan
        hits = bt.exclusion_scan(1.0, 1.0, bt.GOLDEN, k_bound=1, primes=[2],
                                 exponent_bound=1)
        assert hits
        ks = {w.k for w in hits}
        assert any(k[3] == 0 for k in ks)
        for w in hits:
            assert w.distance < 1e-9
            assert min(abs(r - bt.GOLDEN) for r in w.roots) == w.distance

    def test_root_really_solves_quadratic(self):
        hits = bt.exclusion_scan(1.0, 1.0, bt.SQRT2, k_bound=2, primes=[2],
                                 exponent_bound=1)
        assert hits
        for w in hits[:20]:
            t1, t2 = w.theta_values()
            k1, k2, k3, k4 = w.k
            for x in w.roots:
                resid = (k2 + k4 * t1) * x * x + (k1 - k2 + k3 - k4 * t1 + k4 * t2) * x - k1
                assert abs(resid) < 1e-7

    def test_zero_theta_pair_skipped(self):
        # theta = (0, 0) corresponds to q1 = q2 = 1 and is excluded, so with
        # k4 = 0 forced (k_bound on a pure-k1..k3 grid) golden still shows up
        hits = bt.exclusion_scan(0.0, 0.0, bt.GOLDEN, k_bound=1, primes=[2],
                                 exponent_bound=1)
        assert hits == []  # all thetas are (0,0) when deltas are 0

    def test_validation(self):
        with pytest.raises(ValueError):
            bt.exclusion_scan(1.0, 1.0, 2.5, k_bound=0, primes=[2], exponent_bound=1)


def test_named_irrationals_table():
    assert set(bt.NAMED_IRRATIONALS) == {"golden", "sqrt2", "sqrt3"}
    assert bt.NAMED_IRRATIONALS["golden"] == bt.GOLDEN
