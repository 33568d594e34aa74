import json
import math

import numpy as np
import pytest

from zetalab import shift_search as ss
from zetalab.cli import run
from zetalab import zeta_core as zc
from zetalab.beatty import GOLDEN, SQRT2, BeattyPair
from zetalab.errors import ChiBoundUnavailable, OutOfDomain, VanishingTarget

from oracles import chi_abs_mpmath, zeta_mpmath


class TestVerticalGrid:
    def test_strip_check(self):
        g = ss.VerticalGrid(s=0.75 + 10j, h=0.5, l=1)
        g.require_strip(0.5, 1.0)
        with pytest.raises(ValueError):
            g.require_strip(0.8, 1.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            ss.VerticalGrid(s=0.75, h=0.0, l=1)
        with pytest.raises(ValueError):
            ss.TargetDisk(a=1.0, epsilon=0.0)


class TestScanDiskHits:
    def test_hits_verified_directly(self):
        grid = ss.VerticalGrid(s=0.75 + 10j, h=1.0, l=2)
        disk = ss.TargetDisk(a=1.0 + 0j, epsilon=0.6)
        hits, max_dev, rep = ss.scan_disk_hits(grid, disk, 2000)
        assert rep.hits == hits.size == max_dev.size
        assert 0.0 < rep.density < 1.0
        # recompute a sample of hits from scratch, one scalar zeta per grid point
        for n, dev in zip(hits[:5].tolist(), max_dev[:5].tolist()):
            devs = [abs(zc.zeta(grid.s + 1j * grid.h * (n + k)) - disk.a) for k in range(grid.l)]
            assert max(devs) < disk.epsilon
            assert abs(dev - max(devs)) < 1e-10

    @pytest.mark.parametrize("l", [1, 2, 3])
    def test_hits_match_per_hit_reference(self, l):
        # the record of each hit, built one shift at a time from the same
        # kernel values
        grid = ss.VerticalGrid(s=0.75 + 10.3j, h=0.7, l=l)
        disk = ss.TargetDisk(a=1.0 + 0.1j, epsilon=0.6)
        N = 1500
        values = zc.zeta_on_line(0.75, 10.3, 0.7, np.arange(1, N + l))
        dev = np.abs(values - disk.a)
        reference = [
            (n, max(float(dev[n - 1 + k]) for k in range(l)))
            for n in range(1, N + 1)
            if all(dev[n - 1 + k] < disk.epsilon for k in range(l))
        ]
        hits, max_dev, rep = ss.scan_disk_hits(grid, disk, N)
        assert len(reference) > 10
        assert list(zip(hits.tolist(), max_dev.tolist())) == reference
        assert rep.hits == len(reference)
        assert rep.first_hits == tuple(n for n, _ in reference[:10])

    def test_sliding_window_consistency(self):
        # an l = 2 hit at n requires l = 1 hits at n and n + 1
        grid1 = ss.VerticalGrid(s=0.75 + 10j, h=1.0, l=1)
        grid2 = ss.VerticalGrid(s=0.75 + 10j, h=1.0, l=2)
        disk = ss.TargetDisk(a=1.0 + 0j, epsilon=0.6)
        hits1, _, _ = ss.scan_disk_hits(grid1, disk, 1001)
        hits2, _, _ = ss.scan_disk_hits(grid2, disk, 1000)
        singles = set(hits1.tolist())
        for n in hits2.tolist():
            assert n in singles and (n + 1) in singles

    def test_threads_deterministic(self):
        # one thread: a rerun gives the same hits
        grid = ss.VerticalGrid(s=0.75 + 5j, h=0.7, l=2)
        disk = ss.TargetDisk(a=1.0 + 0j, epsilon=0.5)
        hits1, dev1, rep1 = ss.scan_disk_hits(grid, disk, 1500)
        hits2, dev2, rep2 = ss.scan_disk_hits(grid, disk, 1500)
        assert np.array_equal(hits1, hits2) and np.array_equal(dev1, dev2)
        assert rep1 == rep2

    def test_strip_and_domain_guards(self):
        disk = ss.TargetDisk(a=1.0, epsilon=0.5)
        with pytest.raises(ValueError):
            ss.scan_disk_hits(ss.VerticalGrid(s=1.2 + 10j, h=1.0, l=1), disk, 10)
        # the kernel's strip check names the first height past t_max
        with pytest.raises(OutOfDomain, match=r"grid point \(0.75\+30001j\) outside"):
            ss.scan_disk_hits(ss.VerticalGrid(s=0.75 + 10j, h=1.0, l=1), disk, 10 ** 6)

    def test_csv_and_json(self, tmp_path, capsys):
        grid = ss.VerticalGrid(s=0.75 + 10j, h=1.0, l=1)
        disk = ss.TargetDisk(a=1.0 + 0j, epsilon=0.5)
        hits, max_dev, rep = ss.scan_disk_hits(grid, disk, 500)
        argv = ["hits", "--sigma", "0.75", "--im0", "10", "--h", "1", "--l", "1",
                "--a-re", "1", "--eps", "0.5", "--N", "500"]
        path = tmp_path / "hits.csv"
        assert run(argv + ["--output", str(path), "--format", "csv"]) == 0
        assert hits.size > 1
        lines = [f"{n},{dev:.17g}\n" for n, dev in zip(hits.tolist(), max_dev.tolist())]
        assert path.read_text() == "".join(["n,max_dev\n", *lines])
        path = tmp_path / "hits.json"
        assert run(argv + ["--output", str(path)]) == 0
        payload = json.loads(path.read_text())["results"]
        assert payload["N"] == 500 and payload["hits"] == rep.hits
        assert payload["first_hits"] == list(rep.first_hits)
        assert payload["params"] == rep.params
        capsys.readouterr()


class TestJointBeattyHits:
    def test_positive_density_for_golden(self):
        pair = BeattyPair.from_alpha(GOLDEN)
        grid_pts = np.array([0.75 + 0j])
        rep = ss.joint_beatty_hits(
            pair, 10.0, 10.0, 1.0, 1.0, grid_pts, (1.0 + 0j, 1.0 + 0j), 0.7, 1500
        )
        assert rep.hits > 0
        assert rep.density == rep.hits / rep.N
        assert "caveat" in rep.params

    def test_epsilon_monotone(self):
        pair = BeattyPair.from_alpha(SQRT2)
        grid_pts = np.array([0.75 + 0j])
        small = ss.joint_beatty_hits(
            pair, 10.0, 10.0, 1.0, 1.0, grid_pts, (1.0, 1.0), 0.4, 1000
        )
        large = ss.joint_beatty_hits(
            pair, 10.0, 10.0, 1.0, 1.0, grid_pts, (1.0, 1.0), 0.8, 1000
        )
        assert small.hits <= large.hits

    def test_vanishing_target_rejected(self):
        pair = BeattyPair.from_alpha(GOLDEN)
        with pytest.raises(VanishingTarget):
            ss.joint_beatty_hits(
                pair, 10.0, 10.0, 1.0, 1.0, np.array([0.75]), (0.0, 1.0), 0.5, 10
            )


class TestSisDensity:
    def test_density_beats_transfer_bound(self):
        pair = BeattyPair.from_alpha(GOLDEN)
        grid_pts = np.array([0.75 + 0j])
        rep = ss.corollary_sis_density(
            pair, 10.0, 10.0, 1.0, 1.0, grid_pts, (1.0, 1.0), 0.7, 1500
        )
        transfer = rep.params["transferred_lower_bound"]
        slack = rep.params["sampling_slack"]
        assert rep.density + slack >= transfer
        assert abs(transfer - rep.params["beatty_line_density"] / GOLDEN) < 1e-15

    def test_distinct_targets(self):
        pair = BeattyPair.from_alpha(GOLDEN)
        grid_pts = np.array([0.75 + 0j])
        rep = ss.corollary_sis_density(
            pair, 10.0, 10.0, 1.0, 1.0, grid_pts, (1.0, 1.2), 0.8, 1000
        )
        assert rep.hits > 0
        # first hits must satisfy both constraints when recomputed
        for n in rep.first_hits[:3]:
            from zetalab.beatty import sigma_alpha

            s1 = 0.75 + 1j * (10.0 + 1.0 * n)
            s2 = 0.75 + 1j * (10.0 + 1.0 * sigma_alpha(pair, int(n)))
            assert abs(zc.zeta(s1) - 1.0) < 0.8
            assert abs(zc.zeta(s2) - 1.2) < 0.8


class TestLeftHalfFlip:
    def test_predictions_confirmed(self):
        grid = ss.VerticalGrid(s=0.3 + 50j, h=1.0, l=1)
        rep = ss.left_half_flip(grid, r=0.1, c=1.0, N=1000)
        assert len(rep.predicted_hits) > 0
        assert rep.disagreements == ()
        assert set(rep.confirmed_hits) == set(rep.predicted_hits)

    def test_confirmation_split_matches_pointwise(self, monkeypatch):
        """The direct line, evaluated here point by point, clears r on every
        predicted grid; the split follows the sign of b min |zeta(1 - s)| - r."""
        grid = ss.VerticalGrid(s=0.3 + 60j, h=1.0, l=2)

        def least(sigma, n):
            return min(abs(zc.zeta(complex(sigma, grid.s.imag + grid.h * (n + k))))
                       for k in range(grid.l))

        rep = ss.left_half_flip(grid, r=1.0, c=1.0, N=400)
        assert rep.predicted_hits and rep.disagreements == ()
        assert rep.confirmed_hits == rep.predicted_hits
        assert all(least(0.3, n) > 1.0 for n in rep.predicted_hits)
        # b = c / 4 breaks the certificate's b >= c, so that a margin can
        # fail: c = 4 predicts from |zeta(1 - s)| >= 0.5, and b = 1 needs > 1
        monkeypatch.setattr(zc, "chi_lower_bound_check", lambda sigma, c, t: c / 4)
        rep = ss.left_half_flip(grid, r=1.0, c=4.0, N=400)
        confirmed = tuple(n for n in rep.predicted_hits if least(0.7, n) > 1.0)
        assert rep.disagreements and rep.confirmed_hits
        assert rep.confirmed_hits == confirmed
        assert sorted(rep.confirmed_hits + rep.disagreements) == list(rep.predicted_hits)
        assert rep.certified_min_modulus == pytest.approx(
            min(least(0.7, n) for n in rep.predicted_hits), rel=1e-12)

    def test_onset_guard(self):
        # the first height, t = 3, lies below t = 6.37, where the bound on |chi(0.3 + it)| reaches 1
        grid = ss.VerticalGrid(s=0.3 + 2j, h=1.0, l=1)
        for build in (ss.flip_lines, ss.left_half_flip):
            with pytest.raises(ChiBoundUnavailable, match="not certified at sigma 0.3, t 3.0"):
                build(grid, r=0.1, c=1.0, N=10)
        rep = ss.left_half_flip(ss.VerticalGrid(s=0.3 + 5.4j, h=1.0, l=1), r=0.1, c=1.0, N=10)
        assert rep.params["chi_lower_bound"] >= 1.0

    def test_left_strip_required(self):
        grid = ss.VerticalGrid(s=0.75 + 100j, h=1.0, l=1)
        with pytest.raises(ValueError):
            ss.left_half_flip(grid, r=0.1, c=1.0, N=10)

    def test_json(self, tmp_path, capsys):
        grid = ss.VerticalGrid(s=0.3 + 100j, h=1.0, l=1)
        rep = ss.left_half_flip(grid, r=0.1, c=1.0, N=50)
        path = tmp_path / "flip.json"
        assert run(["flip", "--sigma", "0.3", "--t-start", "100", "--h", "1", "--l", "1",
                    "--r", "0.1", "--N", "50", "--output", str(path)]) == 0
        capsys.readouterr()
        payload = json.loads(path.read_text())["results"]
        assert payload["N"] == 50
        assert payload["predicted"] == list(rep.predicted_hits)
        assert payload["confirmed"] == list(rep.confirmed_hits)
        assert payload["disagreements"] == list(rep.disagreements)
        assert payload["params"] == rep.params
        assert payload["certified_min_modulus"] == rep.certified_min_modulus > 0.1
        assert payload["params"]["r"] == 0.1 and payload["params"]["chi_lower_bound"] >= 1.0

    def test_readme_flip_certifies_chi_on_every_height(self, tmp_path, capsys):
        """README's flip line: the report's chi_lower_bound is at least c and
        at most mpmath's |chi| at the first, the last and 8 sampled direct
        heights t_start + h m, m = 1 .. N + l - 1."""
        path = tmp_path / "flip.json"
        assert run(["flip", "--sigma", "0.3", "--t-start", "50", "--h", "1", "--l", "2",
                    "--r", "1", "--N", "10000", "--output", str(path)]) == 0
        capsys.readouterr()
        bound = json.loads(path.read_text())["results"]["params"]["chi_lower_bound"]
        assert bound >= 1.0
        m = [1, 10_001, *np.random.default_rng(3).integers(2, 10_001, 8).tolist()]
        for t in 50.0 + 1.0 * np.array(m):
            assert bound <= chi_abs_mpmath(complex(0.3, t)), t

    def test_readme_flip_certificate_against_mpmath(self):
        """README's flip line: at the predicted n whose grid holds the least
        b |zeta(1 - s)| and at 7 sampled others, mpmath's least |zeta(s)| on
        the grid is at least that n's bound and certified_min_modulus, and
        exceeds r."""
        grid = ss.VerticalGrid(s=0.3 + 50j, h=1.0, l=2)
        rep = ss.left_half_flip(grid, r=1.0, c=1.0, N=10_000)
        b = rep.params["chi_lower_bound"]

        def heights(n):
            return grid.s.imag + grid.h * np.arange(n, n + grid.l)

        bound = {n: b * min(abs(zc.zeta(complex(0.7, t))) for t in heights(n))
                 for n in rep.predicted_hits}
        assert rep.certified_min_modulus == pytest.approx(min(bound.values()), rel=1e-12)
        sample = [min(bound, key=bound.get),
                  *np.random.default_rng(4).choice(rep.predicted_hits, 7, replace=False).tolist()]
        for n in sample:
            direct = min(abs(zeta_mpmath(complex(0.3, t))) for t in heights(n))
            assert max(rep.certified_min_modulus, bound[n]) <= direct, n
            assert direct > 1.0, n
