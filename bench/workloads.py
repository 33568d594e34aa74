"""The benchmark's three workloads.  Each is a list of experiments run back
to back by one client (a closed loop).  CLI experiments go through
`zetalab.cli.run(argv)` in process, with `--output` in a scratch
directory; library experiments call the public API.

The seed moves start heights by less than 1, targets and sample points
inside fixed ranges.  It never changes N, m, a height span or the block
structure, so the work of a pass does not depend on it (flip
confirmations excepted: their number is the number of predicted hits).

Every name a run looks up (`cli.run`, `bt.sigma_alpha`, ...) is read
from its module at call time, so the traced run's wrappers see it.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import oracle
from zetalab import beatty as bt
from zetalab import cli
from zetalab import dirichlet as dl
from zetalab import equidist as eq
from zetalab import euler_product as ep
from zetalab import zeta_core as zc

BLOCK = 512  # heights per zeta_grid call in zetalab's scans


@dataclass
class Experiment:
    name: str
    run: Callable[[], object]  # timed
    finish: Callable[[object], object]  # untimed: raw result -> JSON-able output
    check: Callable[[object], list[str]]  # untimed: output -> problems found
    argv: list[str] | None = None  # CLI experiments: argv without --output
    report: Path | None = None


@dataclass
class Workload:
    name: str
    threads: int
    experiments: list[Experiment]
    # untimed: {experiment: output} -> [(s, zetalab's zeta(s))] to score
    accuracy: Callable[[dict], list[tuple[complex, complex]]]


def _cli_experiment(name, argv, outdir: Path, check, fmt="json") -> Experiment:
    report = outdir / f"{name}.{fmt}"
    full = argv + ["--output", str(report)] + (["--format", fmt] if fmt != "json" else [])

    def run():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.run(full)
        if code != 0:
            raise RuntimeError(f"zetalab {argv[0]} exited with {code}")
        return buf.getvalue()

    def finish(stdout: str):
        summary = json.loads(stdout.strip().splitlines()[-1])
        if fmt == "csv":
            with open(report, newline="") as fh:
                rows = list(csv.reader(fh))
            return {"summary": summary, "rows": rows[1:]}
        with open(report) as fh:
            results = json.load(fh)["results"]
        if results != summary:
            raise RuntimeError(f"{name}: report and stdout disagree")
        return {"summary": summary}

    return Experiment(name, run, finish, check, argv=argv, report=report)


def _f(x: float) -> str:
    return repr(float(x))


def _top_block(points: np.ndarray) -> np.ndarray:
    """The last zeta_grid block of a scan over `points` (ascending)."""
    start = ((points.size - 1) // BLOCK) * BLOCK
    return points[start:]


def _score_block(block: np.ndarray, rng, k: int) -> list[tuple[complex, complex]]:
    values = zc.zeta_grid(block)
    pick = rng.choice(block.size, size=min(k, block.size), replace=False)
    return [(complex(block[i]), complex(values[i])) for i in sorted(pick)]


def _sample(rng, pool, k: int) -> list:
    pool = list(pool)
    if len(pool) <= k:
        return pool
    return [pool[i] for i in sorted(rng.choice(len(pool), size=k, replace=False))]


# ------------------------------------------------------------- line-scan

def line_scan(seed: int, outdir: Path) -> Workload:
    rng = np.random.default_rng([seed, 1])
    u = rng.uniform(0.0, 1.0, size=3)
    da = rng.uniform(-0.05, 0.05, size=2)
    threads = 2
    scans = {
        "hits-low": dict(sigma=0.75, im0=float(u[0]), h=1.0, l=1, a=1.0 + da[0], eps=0.6, N=10_000),
        "hits-top": dict(sigma=0.6, im0=28_000.0 + u[1], h=0.5, l=2, a=1.0 + da[1], eps=0.6, N=2_000),
    }
    flip = dict(sigma=0.3, t_start=50.0 + u[2], h=1.0, l=2, r=1.0, c=1.0, N=10_000)
    checks = np.random.default_rng([seed, 11])

    def hits_heights(p):
        return p["im0"] + p["h"] * np.arange(1, p["N"] + p["l"])

    def shift_points(p, n):
        # heights of grid point k of shift n, as the scan computes them
        return [complex(p["sigma"], h) for h in hits_heights(p)[n - 1 : n - 1 + p["l"]]]

    def hits_check(p, n_hits, n_misses):
        def check(out):
            problems = []
            rows = {int(n): float(dev) for n, dev in out["rows"]}
            summ = out["summary"]
            if summ["hits"] != len(rows) or summ["first_hits"] != sorted(rows)[:10]:
                problems.append("summary does not match the hit rows")
            pool = range(1, p["N"] + 1)
            hits = [n for n in pool if n in rows]
            misses = [n for n in pool if n not in rows]
            for n in _sample(checks, hits, n_hits):
                pts = shift_points(p, n)
                inside, border = oracle.disk_verdict(pts, p["a"], p["eps"])
                if not inside and not border:
                    problems.append(f"shift {n} reported as a hit, mpmath disagrees")
                dev = max(abs(oracle.zeta(s) - p["a"]) for s in pts)
                if abs(dev - rows[n]) > oracle.CONTRACT * max(1.0, dev):
                    problems.append(f"shift {n}: max_dev {rows[n]} against mpmath {dev}")
            for n in _sample(checks, misses, n_misses):
                inside, border = oracle.disk_verdict(shift_points(p, n), p["a"], p["eps"])
                if inside and not border:
                    problems.append(f"shift {n} missed, mpmath finds a hit")
            return problems
        return check

    def hits_argv(p):
        return ["hits", "--sigma", _f(p["sigma"]), "--im0", _f(p["im0"]), "--h", _f(p["h"]),
                "--l", str(p["l"]), "--a-re", _f(p["a"]), "--eps", _f(p["eps"]),
                "--N", str(p["N"]), "--threads", str(threads)]

    def flip_points(sigma, n):
        base = complex(flip["sigma"], flip["t_start"])
        return [complex(sigma, (base + 1j * flip["h"] * (n + k)).imag) for k in range(flip["l"])]

    def flip_check(out):
        res = out["summary"]
        problems = []
        pred, conf, dis = set(res["predicted"]), set(res["confirmed"]), set(res["disagreements"])
        if conf | dis != pred or conf & dis:
            problems.append("confirmed and disagreements do not split predicted")
        big = 2.0 * flip["r"] / flip["c"]
        for n in _sample(checks, sorted(pred), 4):
            above, border = oracle.modulus_verdict(flip_points(1.0 - flip["sigma"], n), big, strict=False)
            if not above and not border:
                problems.append(f"flip {n} predicted, mpmath disagrees")
            above, border = oracle.modulus_verdict(flip_points(flip["sigma"], n), flip["r"], strict=True)
            if above != (n in conf) and not border:
                problems.append(f"flip {n}: confirmation differs from mpmath")
        misses = [n for n in range(1, flip["N"] + 1) if n not in pred]
        for n in _sample(checks, misses, 4):
            above, border = oracle.modulus_verdict(flip_points(1.0 - flip["sigma"], n), big, strict=False)
            if above and not border:
                problems.append(f"flip {n} not predicted, mpmath predicts it")
        return problems

    experiments = [
        _cli_experiment("hits-low", hits_argv(scans["hits-low"]), outdir,
                        hits_check(scans["hits-low"], 6, 6), fmt="csv"),
        _cli_experiment("hits-top", hits_argv(scans["hits-top"]), outdir,
                        hits_check(scans["hits-top"], 2, 2), fmt="csv"),
        _cli_experiment(
            "flip",
            ["flip", "--sigma", _f(flip["sigma"]), "--t-start", _f(flip["t_start"]),
             "--h", _f(flip["h"]), "--l", str(flip["l"]), "--r", _f(flip["r"]),
             "--N", str(flip["N"]), "--threads", str(threads)],
            outdir, flip_check),
    ]

    def accuracy(outputs):
        arng = np.random.default_rng([seed, 21])
        sample = []
        for name, k in (("hits-low", 20), ("hits-top", 12)):
            p = scans[name]
            sample += _score_block(_top_block(p["sigma"] + 1j * hits_heights(p)), arng, k)
        mirrored = flip["t_start"] + flip["h"] * np.arange(1, flip["N"] + flip["l"])
        sample += _score_block(_top_block((1.0 - flip["sigma"]) + 1j * mirrored), arng, 16)
        # confirmations are evaluated one shift at a time
        base = complex(flip["sigma"], flip["t_start"])
        for n in _sample(arng, outputs["flip"]["summary"]["predicted"], 8):
            pts = base + 1j * flip["h"] * (n + np.arange(flip["l"]))
            sample += list(zip(pts.tolist(), zc.zeta_grid(pts).tolist()))
        return sample

    return Workload("line-scan", threads, experiments, accuracy)


# ----------------------------------------------------------- beatty-swap

def beatty_swap(seed: int, outdir: Path) -> Workload:
    rng = np.random.default_rng([seed, 2])
    u = rng.uniform(0.0, 1.0, size=4)
    da = rng.uniform(-0.05, 0.05, size=4)
    threads = 1
    sis = dict(t1=10.0 + u[0], t2=10.0 + u[1], s=0.75, a1=1.0 + da[0], a2=1.2 + da[1], eps=0.8, N=2_000)
    joint = dict(t1=float(u[2]), t2=float(u[3]), s=0.75, a1=1.0 + da[2], a2=1.0 + da[3], eps=0.7, N=1_500)
    checks = np.random.default_rng([seed, 12])
    swap = oracle.golden_swap(sis["N"])

    def joint_shifts(p):
        lower, upper = oracle.golden_floors(np.arange(1, p["N"] + 1))
        return p["t1"] + 1.0 * lower.astype(np.float64), p["t2"] + 1.0 * upper.astype(np.float64)

    def sis_shifts(p):
        n = np.arange(1, p["N"] + 1, dtype=np.float64)
        return p["t1"] + 1.0 * n, p["t2"] + 1.0 * swap[1:].astype(np.float64)

    def pair_check(p, shifts_fn):
        def check(out):
            res = out["summary"]
            problems = []
            first = res["first_hits"]
            if first != sorted(first) or len(first) != min(10, res["hits"]):
                problems.append("first_hits malformed")
            if abs(res["density"] - res["hits"] / p["N"]) > 1e-15:
                problems.append("density does not match hits / N")
            line1, line2 = shifts_fn(p)
            known_misses = [n for n in range(1, (first[-1] if res["hits"] > 10 else p["N"]) + 1)
                            if n not in first]
            for n, expect in [(n, True) for n in _sample(checks, first, 4)] + \
                             [(n, False) for n in _sample(checks, known_misses, 4)]:
                in1, b1 = oracle.disk_verdict([complex(p["s"], line1[n - 1])], p["a1"], p["eps"])
                in2, b2 = oracle.disk_verdict([complex(p["s"], line2[n - 1])], p["a2"], p["eps"])
                if (in1 and in2) != expect and not (b1 or b2):
                    problems.append(f"shift {n}: hit verdict differs from mpmath")
            return problems
        return check

    def pair_argv(cmd, p):
        return [cmd, "--alpha", "golden", "--t1", _f(p["t1"]), "--t2", _f(p["t2"]),
                "--s-re", _f(p["s"]), "--a1-re", _f(p["a1"]), "--a2-re", _f(p["a2"]),
                "--eps", _f(p["eps"]), "--N", str(p["N"]), "--threads", str(threads)]

    # library experiments
    alphas = {"golden": bt.GOLDEN, "sqrt2": bt.SQRT2, "sqrt3": bt.SQRT3}
    n_rayleigh = 4_000_000

    def rayleigh_run():
        return {k: bt.rayleigh_partition_check(bt.BeattyPair.from_alpha(a), n_rayleigh)
                for k, a in alphas.items()}

    def rayleigh_finish(reps):
        return {k: [r.is_partition, r.count_alpha, r.count_alpha_prime] for k, r in reps.items()}

    def rayleigh_check(out):
        n1 = n_rayleigh + 1  # count of m with floor(m a) <= n is floor((n + 1) / a)
        expect = {
            "golden": int(oracle.golden_floors(np.array([n1]))[0][0]) - n1,
            "sqrt2": math.isqrt(2 * n1 * n1) // 2,
            "sqrt3": math.isqrt(3 * n1 * n1) // 3,
        }
        problems = []
        for k, (part, ca, cb) in out.items():
            if not part or ca != expect[k] or ca + cb != n_rayleigh:
                problems.append(f"Rayleigh dissection for {k}: {part}, counts {ca}, {cb}")
        return problems

    n_inv = 200_000

    def involution_run():
        pair = bt.BeattyPair.from_alpha(bt.GOLDEN)
        images = [bt.sigma_alpha(pair, n) for n in range(1, n_inv + 1)]
        back = [bt.sigma_alpha(pair, m) for m in images]
        return images, back

    def involution_finish(raw):
        images, back = raw
        return {"involution": back == list(range(1, n_inv + 1)), "images": images}

    def involution_check(out):
        if not out["involution"]:
            return ["sigma_alpha is not an involution on the prefix"]
        exact = oracle.golden_swap(n_inv)[1:]
        bad = np.nonzero(np.asarray(out["images"]) != exact)[0]
        return [f"sigma_alpha({int(bad[0]) + 1}) differs from the exact swap"] if bad.size else []

    n_weyl = 1_600_000  # keeps n alpha' below 2**22 for the golden pair
    vectors = []
    while len(vectors) < 8:
        w1 = {p: int(rng.integers(-2, 3)) for p in (2, 3)}
        w2 = {p: int(rng.integers(-2, 3)) for p in (5, 7)}
        if any(w1.values()) or any(w2.values()):
            vectors.append(eq.FrequencyVector(primes1=w1, primes2=w2, delta1=1.0, delta2=1.0))
    t_weyl = (float(rng.uniform(0, 1)), float(rng.uniform(0, 1)))
    n_linear = 4_000_000

    def weyl_run():
        pair = bt.BeattyPair.from_alpha(bt.GOLDEN)
        joint_reps = [eq.joint_beatty_weyl(pair, *t_weyl, fv, n_weyl) for fv in vectors]
        linear = eq.weyl_sum(lambda n: n * bt.SQRT2, 1.0, n_linear)
        return joint_reps, linear

    def weyl_finish(raw):
        joint_reps, linear = raw
        return {"joint": [[r.sum_magnitude, r.trajectory] for r in joint_reps],
                "linear": [linear.sum_magnitude, linear.trajectory]}

    def weyl_check(out):
        problems = []
        ceiling = 1.0 / abs(math.sin(math.pi * bt.SQRT2))
        if any(mag * n > ceiling + 1e-9 for n, mag in out["linear"][1]):
            problems.append("linear Weyl sum exceeds 1 / |sin(pi beta)|")
        k = int(checks.integers(len(vectors)))
        fv = vectors[k]
        lower, upper = oracle.golden_floors(np.arange(1, n_weyl + 1))
        phase = (t_weyl[0] + lower * 1.0) * fv.u1 + (t_weyl[1] + upper * 1.0) * fv.u2
        terms = np.exp(2j * math.pi * phase)
        exact = abs(complex(math.fsum(terms.real), math.fsum(terms.imag))) / n_weyl
        if abs(exact - out["joint"][k][0]) > 1e-8:
            problems.append(f"joint Weyl sum {k}: {out['joint'][k][0]} against {exact}")
        return problems

    def exclusion_run():
        return bt.exclusion_scan(1.0, 1.0, bt.GOLDEN, k_bound=3, primes=[2, 3], exponent_bound=1)

    def exclusion_finish(ws):
        return sorted([list(w.k), w.distance] for w in ws)

    def exclusion_check(out):
        # x^2 - x - 1 comes from k = (1, 1, -1, 0) for every theta pair
        if not any(k == [1, 1, -1, 0] for k, _ in out) or any(d >= 1e-9 for _, d in out):
            return ["golden ratio not excluded by the k = (1, 1, -1, 0) quadratic"]
        return []

    def uniqueness_run():
        f = dl.constant_one()
        p1, p2 = dl.Progression(0.0, 1.0), dl.Progression(0.0, 2.0)
        ident = dl.identity_permutation()
        cert = dl.uniqueness_bound(f, f, p1, p2, ident, n_max=1, m_max=1000)
        samples = [cert.b + 0.5 * k for k in range(1, 21)]
        rep = dl.verify_distinct_beyond_b(cert, f, f, p1, p2, ident, samples)
        g = dl.power_of_two_indicator()
        step = 2 * math.pi / math.log(2.0)
        q1, q2 = dl.Progression(step, step), dl.Progression(0.0, step)
        mus = [dl.find_mu(g, g, q1, q2, ident, n, 10 ** 4) for n in range(1, 101)]
        return cert, rep, mus

    def uniqueness_finish(raw):
        cert, rep, mus = raw
        return {"n": cert.n, "mu": cert.mu, "b": cert.b,
                "violations": [str(v) for v in rep.violations], "pow2_mu": mus}

    def uniqueness_check(out):
        ok = out["n"] == 1 and out["mu"] == 2 and not out["violations"]
        ok = ok and all(m is None for m in out["pow2_mu"])
        return [] if ok else [f"criterion-6 verdicts differ: {out}"]

    experiments = [
        _cli_experiment("sis", pair_argv("sis", sis), outdir, pair_check(sis, sis_shifts)),
        _cli_experiment("joint-hits", pair_argv("joint-hits", joint), outdir,
                        pair_check(joint, joint_shifts)),
        Experiment("rayleigh", rayleigh_run, rayleigh_finish, rayleigh_check),
        Experiment("involution", involution_run, involution_finish, involution_check),
        Experiment("weyl", weyl_run, weyl_finish, weyl_check),
        Experiment("exclusion", exclusion_run, exclusion_finish, exclusion_check),
        Experiment("uniqueness", uniqueness_run, uniqueness_finish, uniqueness_check),
    ]

    def accuracy(outputs):
        arng = np.random.default_rng([seed, 22])
        sample = []
        s1, s2 = sis_shifts(sis)
        j1, j2 = joint_shifts(sis)  # the Beatty-line density inside sis
        k1, k2 = joint_shifts(joint)
        for heights in (s1, np.sort(s2, kind="stable"), j1, j2, k1, k2):
            sample += _score_block(_top_block(0.75 + 1j * (0.0 + heights)), arng, 11)
        return sample

    return Workload("beatty-swap", threads, experiments, accuracy)


# ------------------------------------------------------------ low-height

def low_height(seed: int, outdir: Path) -> Workload:
    rng = np.random.default_rng([seed, 3])
    threads = 1
    # three deep mean squares over heights up to 2000 instead of one with
    # N = 2000, whose 2000 x 10^4 outer product would peak near 1 GB
    deeps = [dict(sigma=0.9, m=10_000, N=500, step=step) for step in (2.0, 3.0, 4.0)]
    mid = dict(sigma=0.75, m=200, N=2_000, step=1.0)
    z = complex(rng.uniform(0.60, 0.90), rng.uniform(0.15, 0.95))
    n_scalar = 20_000
    kinds = rng.integers(0, 4, size=n_scalar)
    sig = rng.uniform(-0.9, 1.5, size=n_scalar)
    ts = rng.uniform(2.0, 1000.0, size=n_scalar) * rng.choice([-1.0, 1.0], size=n_scalar)
    checks = np.random.default_rng([seed, 13])

    def ms_argv(p):
        return ["meansquare", "--sigma", _f(p["sigma"]), "--m", str(p["m"]), "--N", str(p["N"]),
                "--shift-step", _f(p["step"]), "--threads", str(threads)]

    def ms_heights(p):
        return p["step"] * np.arange(1, p["N"] + 1)

    def deep_check(out):
        # criterion 8: the deep truncation approximates to 1e-4 in mean square
        value = out["summary"]["value"]
        return [] if 0.0 <= value < 1e-4 else [f"mean square {value} not below 1e-4"]

    def mid_check(out):
        small = ep.mean_square_discrete(ep.TruncationLevel.of(5), mid["sigma"], ms_heights(mid), mid["N"])
        value = out["summary"]["value"]
        return [] if value < small.value else [f"m = 200 ({value}) not better than m = 5 ({small.value})"]

    def limit_check(out):
        res = out["summary"]
        worst = max(res["ks_re"], res["ks_im"], res["ks_log_abs"])
        return [] if worst < 0.05 else [f"KS distance {worst} not below the 0.05 threshold"]

    def bergman_check(out):
        res = out["summary"]
        problems = [] if res["holds"] is True else ["Bergman bound does not hold"]
        if not oracle.close(res["abs_f_z"], abs(oracle.zeta(z))):
            problems.append(f"|zeta(z)| = {res['abs_f_z']} differs from mpmath")
        return problems

    def scalar_run():
        out = []
        for k, s_re, t in zip(kinds.tolist(), sig.tolist(), ts.tolist()):
            s = complex(s_re, t)
            if k == 0:
                out.append(zc.zeta(s))
            elif k == 1:
                out.append(zc.chi(s))
            elif k == 2:
                out.append(zc.hardy_z(abs(t)))
            else:
                out.append(zc.functional_equation_residual(s))
        return out

    def scalar_finish(values):
        return [[v.real, v.imag] if isinstance(v, complex) else [v, 0.0] for v in values]

    def scalar_check(out):
        problems = []
        for kind in range(4):
            for i in _sample(checks, np.nonzero(kinds == kind)[0].tolist(), 12):
                s = complex(sig[i], ts[i])
                got = complex(*out[i])
                if kind == 0:
                    ok = oracle.close(got, oracle.zeta(s))
                elif kind == 1:
                    ok = oracle.close(got, oracle.chi(s))
                elif kind == 2:
                    ok = oracle.close(got, oracle.hardy_z(abs(ts[i])))
                else:
                    ok = got.real <= oracle.CONTRACT * max(1.0, abs(oracle.zeta(s)))
                if not ok:
                    problems.append(f"scalar kind {kind} at {s}: {got}")
        return problems

    experiments = [
        *[_cli_experiment(f"meansquare-deep-{int(p['step'])}", ms_argv(p), outdir, deep_check)
          for p in deeps],
        _cli_experiment("meansquare-mid", ms_argv(mid), outdir, mid_check),
        _cli_experiment(
            "limit-theorem",
            ["limit-theorem", "--m", "200", "--h", _f(math.sqrt(2.0)), "--N", "10000",
             "--trials", "10000", "--seed", str(seed), "--threads", str(threads)],
            outdir, limit_check),
        _cli_experiment(
            "bergman",
            ["bergman", "--f", "zeta", "--z-re", _f(z.real), "--z-im", _f(z.imag),
             "--step", "0.001", "--threads", str(threads)],
            outdir, bergman_check),
        Experiment("scalar", scalar_run, scalar_finish, scalar_check),
    ]

    def accuracy(outputs):
        arng = np.random.default_rng([seed, 23])
        sample = []
        for p in (deeps[-1], mid):
            sample += _score_block(_top_block(complex(p["sigma"], 0.0) + 1j * ms_heights(p)), arng, 16)
        grid = ep.Rectangle(0.55, 0.95, 0.05, 1.05).midpoint_grid(1e-3)
        values = zc.zeta_grid(grid).ravel()
        for i in arng.choice(grid.size, size=16, replace=False):
            sample.append((complex(grid.ravel()[i]), complex(values[i])))
        # the scalar zeta calls hardest for the kernel: far left, high |t|;
        # a systematic choice keeps the minimum from hanging on a lucky draw
        calls = np.nonzero(kinds == 0)[0]
        for i in calls[np.argsort(np.abs(ts[calls]) * (1.5 - sig[calls]))[-32:]]:
            sample.append((complex(sig[i], ts[i]), complex(*outputs["scalar"][i])))
        return sample

    return Workload("low-height", threads, experiments, accuracy)


WORKLOADS = {"line-scan": line_scan, "beatty-swap": beatty_swap, "low-height": low_height}
