"""zetalab benchmark: run one workload, check its outputs, print metrics.

    python3 bench/run.py --workload line-scan --seed 1 --seconds 25 --trace 0

With --trace 0 the run repeats the workload's experiment list (a pass)
until --seconds have passed, at least three times, and reports the
end-to-end metrics as medians over passes.  With --trace 1 it runs an
untraced pass, a traced pass, a traced pass at another seed with
allocation tracking and a second untraced pass, and reports the per-layer
metrics.  The last line of stdout is the result object; bench/README.md
describes every metric.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import spans

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "bench" / "out"
MIN_PASSES = 3
SETUP_RUNS = 11

END_TO_END = {
    "wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "zeta_digits_min": "digits",
}
PER_LAYER = {
    "zeta_core.zeta_grid.calls": "count",
    "zeta_core.zeta_grid.points": "count",
    "zeta_core.zeta_grid.points_per_call": "count",
    "zeta_core.zeta_grid.busy_s": "s",
    "zeta_core.zeta_grid.parallelism": "ratio",
    "zeta_core.zeta_grid.ns_per_point_t": "ns",
    "zeta_core.zeta_grid.us_per_point.t_lt_2e3": "us",
    "zeta_core.zeta_grid.us_per_point.t_2e3_1.5e4": "us",
    "zeta_core.zeta_grid.us_per_point.t_ge_1.5e4": "us",
    "zeta_core.zeta_grid.peak_alloc_mb": "MB",
    "zeta_core.scalar.calls": "count",
    "zeta_core.scalar.busy_s": "s",
    "zeta_core.chi_lower_bound_check.busy_s": "s",
    "shift_search.self_s": "s",
    "shift_search.shifts": "count",
    "shift_search.points_per_shift": "ratio",
    "shift_search.unique_point_ratio": "ratio",
    "shift_search.flip.confirm_ratio": "ratio",
    "shift_search.flip.confirm_calls": "count",
    "shift_search.flip.confirm_s": "s",
    "beatty.busy_s": "s",
    "beatty.sigma_alpha.calls": "count",
    "beatty.sigma_alpha.us_per_call": "us",
    "beatty.rayleigh.ns_per_term": "ns",
    "beatty.exclusion_scan.busy_s": "s",
    "equidist.busy_s": "s",
    "equidist.terms": "count",
    "equidist.ns_per_term": "ns",
    "dirichlet.busy_s": "s",
    "dirichlet.find_mu.calls": "count",
    "dirichlet.dirichlet_eval.calls": "count",
    "euler_product.self_s": "s",
    "euler_product.factors": "count",
    "euler_product.ns_per_factor": "ns",
    "euler_product.peak_alloc_mb": "MB",
    "primes.busy_s": "s",
    "cli.self_s": "s",
    "cli.report_bytes": "bytes",
    "config.busy_s": "s",
    "cli.dry_run_ratio": "ratio",
    "trace.overhead_ratio": "ratio",
    "trace.unattributed_share": "ratio",
}

SETUP_SNIPPET = """\
import contextlib, io, time
t0 = time.perf_counter()
from zetalab import cli
with contextlib.redirect_stdout(io.StringIO()) as buf:
    code = cli.run(["zeta", "--re", "2"])
elapsed = time.perf_counter() - t0
print(code, buf.getvalue().splitlines()[0], repr(elapsed))
"""


class BenchFailure(Exception):
    """The benchmark cannot produce a trustworthy result."""


def measure_setup() -> float:
    """Seconds to import zetalab and finish `zetalab zeta --re 2` in a
    fresh interpreter, as that process measures it."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", SETUP_SNIPPET], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    fields = proc.stdout.split()
    if proc.returncode != 0 or len(fields) != 3 or fields[0] != "0":
        raise BenchFailure(f"set-up probe failed: {proc.stdout!r} {proc.stderr[-500:]!r}")
    if not fields[1].startswith("1.644934066848226"):
        raise BenchFailure(f"set-up probe printed zeta(2) = {fields[1]}")
    return float(fields[2])


def digest(output) -> str:
    return hashlib.sha256(json.dumps(output, sort_keys=True, default=str).encode()).hexdigest()


def run_pass(wl, rec=None, between=None) -> list[dict]:
    """One pass over the experiment list.  Only each experiment's own call
    is timed; reading its report back, and `between()` if given, happen
    between timings."""
    results = []
    with rec.span(spans.HARNESS_PASS) if rec else contextlib.nullcontext():
        for op, exp in enumerate(wl.experiments):
            if rec:
                rec.current_op = op
            error, raw = None, None
            with rec.span(spans.HARNESS_OP, experiment=exp.name) if rec else contextlib.nullcontext():
                c0, t0 = time.process_time(), time.perf_counter()
                try:
                    raw = exp.run()
                except Exception as exc:  # an experiment failing is a result
                    error = f"{type(exc).__name__}: {exc}"
                t1, c1 = time.perf_counter(), time.process_time()
            out = None
            if error is None:
                try:
                    out = exp.finish(raw)
                except Exception as exc:
                    error = f"reading output: {type(exc).__name__}: {exc}"
            results.append({
                "name": exp.name, "wall_s": t1 - t0, "cpu_s": c1 - c0, "error": error,
                "output": out, "digest": digest(out) if error is None else None,
                "report_bytes": exp.report.stat().st_size if exp.report and exp.report.exists() else 0,
            })
            if between:
                between()
    return results


def check_outputs(wl, passes: list[list[dict]]) -> tuple[int, int, list[str]]:
    """(attempted, failed, problems).  The first pass's outputs are checked
    against the oracles; later passes must reproduce them exactly."""
    verdict, reference = {}, {}
    for exp, res in zip(wl.experiments, passes[0]):
        reference[exp.name] = res["digest"]
        if res["error"]:
            continue
        try:
            verdict[exp.name] = exp.check(res["output"])
        except Exception as exc:
            verdict[exp.name] = [f"check raised {type(exc).__name__}: {exc}"]
    problems, failed = [], 0
    for p, results in enumerate(passes):
        for res in results:
            if res["error"]:
                bad = [res["error"]]
            elif res["digest"] != reference[res["name"]]:
                bad = ["output differs from the first pass"]
            else:
                bad = verdict[res["name"]]
            if bad:
                failed += 1
                problems += [f"pass {p} {res['name']}: {b}" for b in bad]
    return sum(len(r) for r in passes), failed, problems


def zeta_digits(wl, outputs: dict) -> tuple[float, int]:
    import oracle

    sample = wl.accuracy(outputs)
    if len(sample) < 64:
        raise BenchFailure(f"accuracy sample has {len(sample)} points, fewer than 64")
    return min(oracle.digits(v, oracle.zeta(s)) for s, v in sample), len(sample)


def provenance(args, wl) -> dict:
    import mpmath
    import numpy

    sha = None
    try:
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=30)
        if proc.returncode == 0:
            sha = proc.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    src_lines = sum(len(p.read_text().splitlines()) for p in sorted(SRC.rglob("*.py")))
    return {
        "git_sha": sha,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "mpmath": mpmath.__version__,
        "workload": wl.name,
        "seed": args.seed,
        "threads": wl.threads,
        "seconds": args.seconds,
        "trace": args.trace,
        "src_lines": src_lines,
    }


def untraced(args, build, outdir):
    wl = build(args.seed, outdir)
    # set-up probes run between experiments, so that their median sees
    # the same machine as the passes do
    setups = [measure_setup()]

    def probe():
        if len(setups) < SETUP_RUNS:
            setups.append(measure_setup())

    passes = []
    begin = time.perf_counter()
    while len(passes) < MIN_PASSES or time.perf_counter() - begin < args.seconds:
        passes.append(run_pass(wl, between=probe))
        if len(passes) > 1:
            # only digests of later passes are compared; keeping their
            # outputs would make the memory peak grow with the pass count
            for r in passes[-1]:
                r["output"] = None
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    setups += [measure_setup() for _ in range(SETUP_RUNS - len(setups))]
    t0 = time.perf_counter()
    attempted, failed, problems = check_outputs(wl, passes)
    t1 = time.perf_counter()
    outputs = {r["name"]: r["output"] for r in passes[0]}
    # the accuracy sample reads outputs (flip predictions), so it needs them all
    digits, n_sample = zeta_digits(wl, outputs) if failed == 0 else (0.0, 0)
    t2 = time.perf_counter()
    metrics = {
        "wall_s": statistics.median(sum(r["wall_s"] for r in p) for p in passes),
        "cpu_s": statistics.median(sum(r["cpu_s"] for r in p) for p in passes),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": peak_rss_mb,
        "zeta_digits_min": digits,
    }
    detail = {
        "setup_runs_s": setups,
        "accuracy_sample": n_sample,
        "phase_s": {"passes": t0 - begin, "checks": t1 - t0, "accuracy": t2 - t1},
        "passes": [[{k: r[k] for k in ("name", "wall_s", "cpu_s", "error")} for r in p] for p in passes],
    }
    return wl, attempted, failed, problems, metrics, detail


def fingerprint() -> str:
    """Hash of the program and benchmark sources: work counts are compared
    only between runs of the same code."""
    h = hashlib.sha256()
    for p in sorted(SRC.rglob("*.py")) + sorted((ROOT / "bench").glob("*.py")):
        h.update(p.relative_to(ROOT).as_posix().encode() + b"\0" + p.read_bytes())
    return h.hexdigest()[:16]


def check_invariance(name: str, counts: list[tuple[int, dict]]) -> dict:
    """Work counts must repeat exactly across passes, seeds and runs; the
    summed heights may move by less than one per point between seeds,
    because the seed moves start heights by less than one."""
    path = OUT / f"invariants-{name}-{fingerprint()}.json"
    record = json.loads(path.read_text()) if path.exists() else {"counts": None, "sum_t": {}}
    for s, c in counts:
        exact = {k: v for k, v in c.items() if k != "zeta_grid.sum_t"}
        if record["counts"] is None:
            record["counts"] = exact
        if exact != record["counts"]:
            raise BenchFailure(f"work counts changed with seed {s}: {exact} != {record['counts']}")
        prior = record["sum_t"].get(str(s))
        if prior is not None and prior != c["zeta_grid.sum_t"]:
            raise BenchFailure(f"summed heights changed between runs at seed {s}")
        record["sum_t"][str(s)] = c["zeta_grid.sum_t"]
    sums = list(record["sum_t"].values())
    if max(sums) - min(sums) > record["counts"]["zeta_grid.points"]:
        raise BenchFailure(f"summed heights move with the seed beyond the start offsets: {sums}")
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(record, indent=1, sort_keys=True))
    os.replace(tmp, path)
    return record


def traced(args, build, outdir, package):
    wl = build(args.seed, outdir)
    dry = {}
    for exp in wl.experiments:
        if exp.argv is not None:
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = package.cli.run(exp.argv + ["--dry-run"])
            if code != 0:
                raise BenchFailure(f"--dry-run of {exp.name} exited with {code}")
            dry[exp.name] = json.loads(buf.getvalue())["estimated_evaluations"]

    plain = run_pass(wl)
    other = build(args.seed + 1, outdir)
    tables, passes = [], [plain]
    # the first traced pass gives the timings; the second, at another seed,
    # checks that the work does not move with the seed and measures
    # allocation peaks, which tracemalloc would otherwise slow down
    for w, track_alloc in ((wl, False), (other, True)):
        rec = spans.Recorder(track_alloc=track_alloc)
        inst = spans.Instrumentation(package, rec)
        try:
            passes.append(run_pass(w, rec))
        finally:
            inst.remove()
        tables.append(rec.table())

    # a second untraced pass, warm like the traced one, for the overhead
    warm = run_pass(wl)

    attempted, failed, problems = check_outputs(wl, passes[:2] + [warm])
    a2, f2, p2 = check_outputs(other, passes[2:])
    attempted, failed, problems = attempted + a2, failed + f2, problems + p2

    tab = tables[0]
    metrics = spans.reduce_spans(tab)
    alloc = spans.reduce_spans(tables[1])
    for key in ("zeta_core.zeta_grid.peak_alloc_mb", "euler_product.peak_alloc_mb"):
        metrics[key] = alloc[key]
    wall_plain = sum(r["wall_s"] for r in warm)
    wall_traced = sum(r["wall_s"] for r in passes[1])
    metrics["trace.overhead_ratio"] = wall_traced / wall_plain - 1.0
    metrics["cli.report_bytes"] = sum(r["report_bytes"] for r in passes[1])

    names = tab.labels()
    points_by_op = {}
    for i, n in enumerate(names):
        if n == "zeta_core.zeta_grid":
            op = int(tab.op[i])
            points_by_op[op] = points_by_op.get(op, 0) + tab.attrs[i]["points"]
    calib = {exp.name: {"estimated_evaluations": dry[exp.name],
                        "zeta_grid_points": points_by_op.get(op, 0)}
             for op, exp in enumerate(wl.experiments) if exp.name in dry}
    est = sum(c["estimated_evaluations"] for c in calib.values())
    pts = sum(c["zeta_grid_points"] for c in calib.values())
    metrics["cli.dry_run_ratio"] = est / pts if pts else 0.0

    counts = [(args.seed, spans.invariant_counts(tables[0], metrics)),
              (args.seed + 1, spans.invariant_counts(tables[1], alloc))]
    record = check_invariance(wl.name, counts)

    op_wall = {}
    for i, n in enumerate(names):
        if n == spans.HARNESS_OP:
            op_wall[tab.attrs[i]["experiment"]] = float(tab.end[i] - tab.start[i])
    # per-point kernel cost by height in 1000-wide bands, to set beside
    # earlier single-block timings (blocks of 256 points or more only)
    blocks = [i for i, n in enumerate(names)
              if n == "zeta_core.zeta_grid" and tab.attrs[i]["points"] >= 256]
    rates = spans.us_per_point(tab, blocks, [(str(k), k, k + 1000) for k in range(0, 30_000, 1000)])
    detail = {
        "zeta_grid_us_per_point_by_height": {k: r for k, r in rates.items() if r},
        "dry_run": calib,
        "coverage_s": spans.layer_coverage(tab),
        "traced_wall_s": wall_traced,
        "untraced_wall_s": wall_plain,
        "untraced_experiment_s": {r["name"]: r["wall_s"] for r in warm},
        "traced_experiment_s": op_wall,
        "invariant_counts": dict(counts),
        "invariants_record": record,
        "spans": len(tab),
    }
    return wl, attempted, failed, problems, metrics, detail


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "zetalab" / "__init__.py").is_file():
        print(f"error: no zetalab sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import zetalab

    if Path(zetalab.__file__).resolve().parent != (SRC / "zetalab").resolve():
        print(f"error: imported zetalab from {zetalab.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import workloads  # imports zetalab.cli, which the package itself does not

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    build = workloads.WORKLOADS[args.workload]
    OUT.mkdir(parents=True, exist_ok=True)
    outdir = Path(tempfile.mkdtemp(prefix="reports-", dir=OUT))
    try:
        if args.trace:
            wl, attempted, failed, problems, metrics, detail = traced(args, build, outdir, zetalab)
            units = PER_LAYER
        else:
            wl, attempted, failed, problems, metrics, detail = untraced(args, build, outdir)
            units = END_TO_END
    except BenchFailure as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(outdir, ignore_errors=True)

    missing = set(units) - set(metrics)
    if missing:
        print(f"error: metrics not computed: {sorted(missing)}", file=sys.stderr)
        return 3
    prov = provenance(args, wl)
    record = {"provenance": prov, "metrics": metrics, "attempted": attempted,
              "failed": failed, "problems": problems, "detail": detail}
    (OUT / f"{wl.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True, default=str))
    for p in problems:
        print(f"FAILED {p}", file=sys.stderr)
    print("provenance " + json.dumps(prov, sort_keys=True))
    for name, unit in units.items():
        print(f"{name} = {metrics[name]:.6g} {unit}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": float(metrics[name]), "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
