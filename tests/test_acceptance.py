"""Acceptance suite: thirteen quantitative criteria, one pass/fail line
each (run with `pytest tests/test_acceptance.py -s` to see them live).

Thresholds marked "frozen" were fixed after the first measured run and act
as regressions from then on.
"""

import json
import math
import time

import numpy as np
import pytest

from zetalab import (
    beatty as bt,
    dirichlet as dl,
    equidist as eq,
    euler_product as ep,
    shift_search as ss,
    zeta_core as zc,
)
from zetalab.cli import run as cli_run

from oracles import zeta_mpmath

PI = math.pi


def _report(number: int, label: str, ok: bool, elapsed: float, budget: float):
    status = "PASS" if ok and elapsed < budget else "FAIL"
    print(f"[criterion {number:2d}] {status}  {label}  ({elapsed:.2f}s / budget {budget:.0f}s)")
    assert ok, f"criterion {number} failed: {label}"
    assert elapsed < budget, f"criterion {number} exceeded budget: {elapsed:.2f}s"


def test_criterion_01_special_values():
    start = time.time()
    ok = (
        abs(zc.zeta(2.0) - PI ** 2 / 6) < 1e-9
        and abs(zc.zeta(0.0) + 0.5) < 1e-9
        and abs(zc.zeta(0.5) - zeta_mpmath(0.5)) < 1e-9
    )
    _report(1, "special values of zeta", ok, time.time() - start, 1.0)


def test_criterion_02_functional_equation():
    start = time.time()
    rng = np.random.default_rng(2024)
    worst = 0.0
    count = 0
    while count < 200:
        sigma = rng.uniform(-0.5, 1.5)
        t = rng.uniform(2.0, 500.0) * rng.choice([-1.0, 1.0])
        s = complex(sigma, t)
        worst = max(worst, zc.functional_equation_residual(s))
        count += 1
    _report(2, f"functional-equation residual (max {worst:.2e})", worst < 1e-7,
            time.time() - start, 5.0)


def test_criterion_03_chi_asymptotic():
    start = time.time()
    sigma = 0.25
    t = np.linspace(50.0, 2000.0, 2000)
    log_abs = np.array([zc.log_chi(complex(sigma, tt)).real for tt in t])
    dev = np.abs(log_abs - (0.5 - sigma) * np.log(t / (2 * PI)))
    # constant 0.5 frozen after the first measured run (observed ~0.16 max of dev*t)
    ok = bool(np.all(dev < 0.5 / t))
    _report(3, f"chi modulus asymptotic (max dev*t {float((dev * t).max()):.3f})",
            ok, time.time() - start, 10.0)


def test_criterion_04_rayleigh_partition():
    start = time.time()
    ok = True
    for alpha in (bt.GOLDEN, bt.SQRT2):
        rep = bt.rayleigh_partition_check(bt.BeattyPair.from_alpha(alpha), 10 ** 6)
        ok = ok and rep.is_partition
    _report(4, "Rayleigh dissection of 1..10^6 (golden, sqrt2)", ok,
            time.time() - start, 5.0)


def test_criterion_05_swap_involution():
    start = time.time()
    pair = bt.BeattyPair.from_alpha(bt.GOLDEN)
    ok = all(bt.sigma_alpha(pair, bt.sigma_alpha(pair, n)) == n
             for n in range(1, 10 ** 5 + 1))
    _report(5, "swap permutation is an involution on 1..10^5", ok,
            time.time() - start, 5.0)


def test_criterion_06_uniqueness_machinery():
    start = time.time()
    f = dl.constant_one()
    p1 = dl.Progression(0.0, 1.0)
    p2 = dl.Progression(0.0, 2.0)
    ident = dl.identity_permutation()
    cert = dl.uniqueness_bound(f, f, p1, p2, ident, n_max=1, m_max=1000)
    ok = cert is not None and cert.mu == 2 and cert.n == 1
    if ok:
        samples = [cert.b + 0.5 * k for k in range(1, 21)]  # Re s in (b, b + 10]
        rep = dl.verify_distinct_beyond_b(cert, f, f, p1, p2, ident, samples)
        ok = rep.violations == []
    # power-of-2 counterexample: no nonzero phi at all
    g = dl.power_of_two_indicator()
    step = 2 * PI / math.log(2.0)
    q1 = dl.Progression(step, step)
    q2 = dl.Progression(0.0, step)
    ok = ok and all(
        dl.find_mu(g, g, q1, q2, ident, n, 10 ** 4) is None for n in range(1, 101)
    )
    _report(6, "uniqueness certificate and power-of-2 counterexample", ok,
            time.time() - start, 10.0)


def test_criterion_07_weyl_decay():
    start = time.time()
    rep = eq.weyl_sum(lambda n: n * bt.SQRT2, 1.0, 10 ** 6)
    ceiling = 1.0 / abs(math.sin(PI * bt.SQRT2))
    ok = all(mag * n <= ceiling + 1e-9 for n, mag in rep.trajectory)
    pair = bt.BeattyPair.from_alpha(bt.GOLDEN)
    fv = eq.FrequencyVector(primes1={2: 1}, primes2={}, delta1=1.0, delta2=1.0)
    joint = eq.joint_beatty_weyl(pair, 0.0, 0.0, fv, 10 ** 6)
    ok = ok and joint.sum_magnitude < 0.01
    _report(7, f"Weyl decay (joint final {joint.sum_magnitude:.2e})", ok,
            time.time() - start, 30.0)


def test_criterion_08_mean_square():
    start = time.time()
    shifts = np.arange(1, 2001, dtype=np.float64)
    small = ep.mean_square_discrete(ep.TruncationLevel.of(5), 0.75, shifts, 2000)
    large = ep.mean_square_discrete(ep.TruncationLevel.of(200), 0.75, shifts, 2000)
    deep = ep.mean_square_discrete(ep.TruncationLevel.of(10 ** 4), 0.9, shifts, 2000)
    ok = large.value < small.value and deep.value < 1e-4
    _report(8, f"mean-square approximation (m=10^4 at 0.9: {deep.value:.2e})", ok,
            time.time() - start, 60.0)


def test_criterion_09_bergman_bound():
    start = time.time()
    rect = ep.Rectangle(0.55, 0.95, 0.05, 1.05)
    grid = rect.midpoint_grid(1e-3)
    rng = np.random.default_rng(9)
    zs = [complex(rng.uniform(0.60, 0.90), rng.uniform(0.15, 0.95)) for _ in range(20)]
    families = {
        "one": (np.ones_like(grid), lambda z: 1.0 + 0j),
        "s": (grid, lambda z: z),
        "s2": (grid ** 2, lambda z: z * z),
        "zeta": (zc.zeta_grid(grid), zc.zeta),
    }
    ok = True
    for samples, f in families.values():
        for z in zs:
            ok = ok and abs(f(z)) <= ep.bergman_sup_bound(samples, rect, z)
    _report(9, "Bergman pointwise bound on four test functions", ok,
            time.time() - start, 30.0)


def test_criterion_10_disk_hits():
    start = time.time()
    grid = ss.VerticalGrid(s=0.75 + 0j, h=1.0, l=1)
    disk = ss.TargetDisk(a=1.0 + 0j, epsilon=0.6)
    hits1, rep1 = ss.scan_disk_hits(grid, disk, 10 ** 4)
    hits2, rep2 = ss.scan_disk_hits(grid, disk, 2 * 10 ** 4)
    ok = rep1.hits > 0 and rep2.hits >= rep1.hits
    for h in hits1:  # every stored hit re-verifies from scratch
        s = grid.s + 1j * grid.h * h.n
        ok = ok and abs(zc.zeta(s) - disk.a) < disk.epsilon
    _report(10, f"disk hits ({rep1.hits} at N=10^4, {rep2.hits} at N=2*10^4)", ok,
            time.time() - start, 120.0)


def test_criterion_11_left_half_flip():
    start = time.time()
    chi_rep = zc.chi_lower_bound_check(0.3, 1.0, (2.0, 200.0), 500)
    t_start = max(50.0, chi_rep.t0)
    grid = ss.VerticalGrid(s=complex(0.3, t_start), h=1.0, l=2)
    rep = ss.left_half_flip(grid, r=1.0, c=1.0, N=10 ** 4, t0=chi_rep.t0)
    ok = len(rep.disagreements) == 0 and len(rep.predicted_hits) > 0
    _report(11, f"flip confirmations ({len(rep.confirmed_hits)} hits, "
                f"{len(rep.disagreements)} disagreements)", ok,
            time.time() - start, 120.0)


def test_criterion_12_limit_theorem():
    start = time.time()
    generic = ep.empirical_limit_theorem(
        ep.TruncationLevel.of(50), math.sqrt(2.0), 0.75, 10 ** 4, 10 ** 4, seed=42
    )
    # threshold 0.05 frozen after the first measured run (observed 0.016)
    threshold = 0.05
    resonant = ep.empirical_limit_theorem(
        ep.TruncationLevel.of(1), 2 * PI / math.log(2.0), 0.75, 10 ** 4, 10 ** 4,
        seed=42,
    )
    generic_ks = max(generic.ks_re, generic.ks_im, generic.ks_log_abs)
    resonant_ks = max(resonant.ks_re, resonant.ks_im, resonant.ks_log_abs)
    ok = generic_ks < threshold and resonant_ks >= 5 * threshold
    _report(12, f"limit theorem (generic KS {generic_ks:.3f}, "
                f"resonant {resonant_ks:.3f})", ok,
            time.time() - start, 60.0)


def test_criterion_13_determinism(tmp_path, capsys):
    start = time.time()
    out = tmp_path / "report.json"
    argv = ["hits", "--sigma", "0.75", "--im0", "10", "--h", "1", "--l", "1",
            "--a-re", "1", "--eps", "0.5", "--N", "2000", "--output", str(out)]

    def render(threads: int) -> bytes:
        assert cli_run(argv + ["--threads", str(threads)]) == 0
        lines = [ln for ln in out.read_bytes().splitlines()
                 if b'"timestamp"' not in ln]
        return b"\n".join(lines)

    first = render(1)
    ok = all(render(k) == first for k in (1, 2, 4))
    capsys.readouterr()
    elapsed = time.time() - start
    with capsys.disabled():
        _report(13, "byte-identical reports across reruns and thread counts", ok,
                elapsed, 60.0)
