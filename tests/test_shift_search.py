import json
import math

import numpy as np
import pytest

from zetalab import shift_search as ss
from zetalab.cli import run
from zetalab import zeta_core as zc
from zetalab.beatty import GOLDEN, SQRT2, BeattyPair
from zetalab.errors import ChiBoundUnavailable, DomainOverflow, VanishingTarget


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
        hits, rep = ss.scan_disk_hits(grid, disk, 2000)
        assert rep.hits == len(hits)
        assert 0.0 < rep.density < 1.0
        # recompute a sample of hits from scratch
        for h in hits[:5]:
            for k in range(grid.l):
                s = grid.s + 1j * grid.h * (h.n + k)
                assert abs(zc.zeta(s) - disk.a) < disk.epsilon
                assert abs(abs(zc.zeta(s) - disk.a) - h.deviations[k]) < 1e-10
            assert h.max_dev == max(h.deviations)

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
            ss.ShiftHit(
                n=n,
                deviations=tuple(float(dev[n - 1 + k]) for k in range(l)),
                max_dev=float(dev[n - 1 : n - 1 + l].max()),
            )
            for n in range(1, N + 1)
            if all(dev[n - 1 + k] < disk.epsilon for k in range(l))
        ]
        hits, rep = ss.scan_disk_hits(grid, disk, N)
        assert len(reference) > 10
        assert hits == reference
        assert all(type(h.n) is int and type(h.max_dev) is float for h in hits)
        assert all(type(d) is float for h in hits for d in h.deviations)
        assert rep.hits == len(reference)
        assert rep.first_hits == tuple(h.n for h in reference[:10])

    def test_sliding_window_consistency(self):
        # an l = 2 hit at n requires l = 1 hits at n and n + 1
        grid1 = ss.VerticalGrid(s=0.75 + 10j, h=1.0, l=1)
        grid2 = ss.VerticalGrid(s=0.75 + 10j, h=1.0, l=2)
        disk = ss.TargetDisk(a=1.0 + 0j, epsilon=0.6)
        hits1, _ = ss.scan_disk_hits(grid1, disk, 1001)
        hits2, _ = ss.scan_disk_hits(grid2, disk, 1000)
        singles = {h.n for h in hits1}
        for h in hits2:
            assert h.n in singles and (h.n + 1) in singles

    def test_threads_deterministic(self):
        # one thread: a rerun gives the same hits
        grid = ss.VerticalGrid(s=0.75 + 5j, h=0.7, l=2)
        disk = ss.TargetDisk(a=1.0 + 0j, epsilon=0.5)
        hits1, rep1 = ss.scan_disk_hits(grid, disk, 1500)
        hits2, rep2 = ss.scan_disk_hits(grid, disk, 1500)
        assert hits1 == hits2
        assert rep1 == rep2

    def test_strip_and_domain_guards(self):
        disk = ss.TargetDisk(a=1.0, epsilon=0.5)
        with pytest.raises(ValueError):
            ss.scan_disk_hits(ss.VerticalGrid(s=1.2 + 10j, h=1.0, l=1), disk, 10)
        with pytest.raises(DomainOverflow):
            ss.scan_disk_hits(ss.VerticalGrid(s=0.75 + 10j, h=1.0, l=1), disk, 10 ** 6)

    def test_csv_and_json(self, tmp_path, capsys):
        grid = ss.VerticalGrid(s=0.75 + 10j, h=1.0, l=1)
        disk = ss.TargetDisk(a=1.0 + 0j, epsilon=0.5)
        hits, rep = ss.scan_disk_hits(grid, disk, 500)
        argv = ["hits", "--sigma", "0.75", "--im0", "10", "--h", "1", "--l", "1",
                "--a-re", "1", "--eps", "0.5", "--N", "500"]
        path = tmp_path / "hits.csv"
        assert run(argv + ["--output", str(path), "--format", "csv"]) == 0
        assert len(hits) > 1
        assert path.read_text() == "".join(
            ["n,max_dev\n"] + [f"{h.n},{h.max_dev:.17g}\n" for h in hits]
        )
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
        rep0 = zc.chi_lower_bound_check(0.3, 1.0, (2.0, 3000.0), 1500)
        grid = ss.VerticalGrid(s=0.3 + 1j * max(50.0, rep0.t0 + 1), h=1.0, l=1)
        rep = ss.left_half_flip(grid, r=0.1, c=1.0, N=1000, t0=rep0.t0)
        assert len(rep.predicted_hits) > 0
        assert rep.disagreements == ()
        assert set(rep.confirmed_hits) == set(rep.predicted_hits)

    def test_confirmation_split_matches_pointwise(self):
        # c = 4 predicts |zeta(s)| > 1 from |zeta(1 - s)| >= 0.5, which often fails
        grid = ss.VerticalGrid(s=0.3 + 60j, h=1.0, l=2)
        rep = ss.left_half_flip(grid, r=1.0, c=4.0, N=400, t0=50.0)
        confirmed = [
            n for n in rep.predicted_hits
            if all(abs(zc.zeta(grid.s + 1j * grid.h * (n + k))) > 1.0 for k in range(grid.l))
        ]
        assert rep.disagreements and rep.confirmed_hits
        assert list(rep.confirmed_hits) == confirmed
        assert sorted(rep.confirmed_hits + rep.disagreements) == list(rep.predicted_hits)

    def test_onset_guard(self):
        grid = ss.VerticalGrid(s=0.3 + 2j, h=1.0, l=1)
        with pytest.raises(ChiBoundUnavailable):
            ss.left_half_flip(grid, r=0.1, c=1.0, N=10, t0=50.0)

    def test_left_strip_required(self):
        grid = ss.VerticalGrid(s=0.75 + 100j, h=1.0, l=1)
        with pytest.raises(ValueError):
            ss.left_half_flip(grid, r=0.1, c=1.0, N=10, t0=50.0)

    def test_json(self, tmp_path, capsys):
        grid = ss.VerticalGrid(s=0.3 + 100j, h=1.0, l=1)
        rep = ss.left_half_flip(grid, r=0.1, c=1.0, N=50, t0=50.0)
        path = tmp_path / "flip.json"
        assert run(["flip", "--sigma", "0.3", "--t-start", "100", "--h", "1", "--l", "1",
                    "--r", "0.1", "--N", "50", "--output", str(path)]) == 0
        capsys.readouterr()
        payload = json.loads(path.read_text())["results"]
        assert payload["N"] == 50
        assert payload["predicted"] == list(rep.predicted_hits)
        assert payload["confirmed"] == list(rep.confirmed_hits)
        assert payload["disagreements"] == list(rep.disagreements)
        assert payload["params"]["r"] == 0.1 and payload["params"]["t0"] <= 100.0
