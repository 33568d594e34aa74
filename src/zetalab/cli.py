"""Batch command-line surface: every experiment behind a subcommand with
reproducible configuration and machine-readable reports.

Exit codes: 0 success, 1 internal error, 2 precondition/domain error,
64 usage error.
"""

from __future__ import annotations

import argparse
import datetime
import functools
import json
import math
import sys
from dataclasses import asdict

import numpy as np

from . import beatty as beatty_mod
from . import dirichlet, equidist, euler_product, shift_search, zeta_core
from .config import ExperimentConfig, config_roundtrip, warn_unknown_keys
from .errors import ParseError, ZetaLabError

USAGE_ERROR = 64
_CSV_COMMANDS = ("hits", "beatty", "weyl")  # every other command writes JSON only
_NOT_PARAMS = ("command", "output", "format", "seed", "threads", "dry_run", "config")


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        sys.exit(USAGE_ERROR)


def _resolve_alpha(text: str) -> float:
    if text in beatty_mod.NAMED_IRRATIONALS:
        return beatty_mod.NAMED_IRRATIONALS[text]
    return float(text)


def _fmt_complex(z: complex) -> str:
    return f"{z.real:.17g}{z.imag:+.17g}j"


def _write_report(cfg: ExperimentConfig, results: dict, csv_rows: list | None) -> None:
    report = {
        "config": cfg.as_dict(),
        "results": results,
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
    }
    if cfg.output:
        if cfg.format == "csv":
            with open(cfg.output, "w", newline="") as fh:
                lines = [",".join([_csv_cell(c) for c in row]) + "\n" for row in csv_rows]
                fh.write("".join(lines))
        else:
            with open(cfg.output, "w") as fh:
                json.dump(report, fh, sort_keys=True, indent=2, default=str)
                fh.write("\n")
    print(json.dumps(results, sort_keys=True, default=str))


def _csv_cell(v) -> str:
    if isinstance(v, float):
        return f"{v:.17g}"
    return str(v)


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--output", help="report path")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--threads", type=int, default=1,
                   help="accepted and ignored: every command runs on one thread")
    p.add_argument("--dry-run", action="store_true",
                   help="print resolved config and cost estimate, do not evaluate")
    p.add_argument("--config", help="key = value config file; flags override")


def build_parser() -> _Parser:
    parser = _Parser(prog="zetalab")
    sub = parser.add_subparsers(dest="command", required=True)

    for name, what in (("zeta", "zeta(s)"), ("chi", "the functional-equation factor")):
        p = sub.add_parser(name, help=f"evaluate {what}")
        p.add_argument("--re", type=float, required=True)
        p.add_argument("--im", type=float, default=0.0)

    p = sub.add_parser("ztheta", help="theta(t) and Hardy Z(t)")
    p.add_argument("--t", type=float, required=True)

    p = sub.add_parser("uniqueness", help="uniqueness certificate scan")
    p.add_argument("--t1", type=float, default=0.0)
    p.add_argument("--t2", type=float, default=0.0)
    p.add_argument("--delta1", type=float, required=True)
    p.add_argument("--delta2", type=float, required=True)
    p.add_argument("--n-max", type=int, default=50)
    p.add_argument("--m-max", type=int, default=1000)
    p.add_argument("--tol", type=float, default=dirichlet.DEFAULT_TOL)
    p.add_argument("--coeffs", choices=("zeta", "pow2"), default="zeta")
    p.add_argument("--swap", help="n1,n2 for a transposition permutation")

    p = sub.add_parser("beatty", help="Rayleigh partition check")
    p.add_argument("--alpha", required=True, help="golden|sqrt2|sqrt3 or a literal")
    p.add_argument("--check", type=int, required=True, help="partition bound n_max")

    p = sub.add_parser("weyl", help="Weyl sum decay")
    p.add_argument("--mode", choices=("linear", "beatty"), default="linear")
    p.add_argument("--beta", type=float, help="x_n = n beta (linear mode)")
    p.add_argument("--freq", type=float, default=1.0)
    p.add_argument("--alpha", help="Beatty mode: golden|sqrt2|sqrt3 or literal")
    p.add_argument("--m1", default="", help="prime:weight[,prime:weight...]")
    p.add_argument("--m2", default="")
    p.add_argument("--t1", type=float, default=0.0)
    p.add_argument("--t2", type=float, default=0.0)
    p.add_argument("--delta1", type=float, default=1.0)
    p.add_argument("--delta2", type=float, default=1.0)
    p.add_argument("--N", type=int, required=True)

    p = sub.add_parser("meansquare", help="discrete mean-square approximation")
    p.add_argument("--sigma", type=float, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--shift-step", type=float, default=1.0, help="x_n = step * n")

    p = sub.add_parser("limit-theorem", help="empirical discrete limit theorem")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--h", type=float, required=True)
    p.add_argument("--sigma", type=float, default=0.75)
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--trials", type=int, required=True)

    p = sub.add_parser("hits", help="disk-hit scan on a vertical grid")
    p.add_argument("--sigma", type=float, required=True)
    p.add_argument("--im0", type=float, default=0.0)
    p.add_argument("--h", type=float, required=True)
    p.add_argument("--l", type=int, required=True)
    p.add_argument("--a-re", type=float, required=True)
    p.add_argument("--a-im", type=float, default=0.0)
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--N", type=int, required=True)

    for name in ("joint-hits", "sis"):
        p = sub.add_parser(name, help="joint Beatty / swap-permutation hit density")
        p.add_argument("--alpha", required=True)
        p.add_argument("--t1", type=float, default=0.0)
        p.add_argument("--t2", type=float, default=0.0)
        p.add_argument("--delta1", type=float, default=1.0)
        p.add_argument("--delta2", type=float, default=1.0)
        p.add_argument("--s-re", type=float, required=True)
        p.add_argument("--s-im", type=float, default=0.0)
        p.add_argument("--a1-re", type=float, required=True)
        p.add_argument("--a1-im", type=float, default=0.0)
        p.add_argument("--a2-re", type=float, required=True)
        p.add_argument("--a2-im", type=float, default=0.0)
        p.add_argument("--eps", type=float, required=True)
        p.add_argument("--N", type=int, required=True)

    p = sub.add_parser("flip", help="left-half flip via the functional equation")
    p.add_argument("--sigma", type=float, required=True)
    p.add_argument("--t-start", type=float, required=True)
    p.add_argument("--h", type=float, required=True)
    p.add_argument("--l", type=int, required=True)
    p.add_argument("--r", type=float, required=True)
    p.add_argument("--c", type=float, default=1.0)
    p.add_argument("--N", type=int, required=True)

    p = sub.add_parser("bergman", help="Bergman sup bound on a rectangle")
    p.add_argument("--f", choices=("one", "s", "s2", "zeta"), required=True)
    p.add_argument("--step", type=float, default=1e-2)
    p.add_argument("--x0", type=float, default=0.55)
    p.add_argument("--x1", type=float, default=0.95)
    p.add_argument("--y0", type=float, default=0.05)
    p.add_argument("--y1", type=float, default=1.05)
    p.add_argument("--z-re", type=float, required=True)
    p.add_argument("--z-im", type=float, required=True)

    for p in sub.choices.values():
        _add_common(p)
    return parser


def _parse_weights(text: str) -> dict[int, int]:
    out: dict[int, int] = {}
    if not text:
        return out
    for item in text.split(","):
        prime, _, weight = item.partition(":")
        out[int(prime)] = int(weight) if weight else 1
    return out


def _cost_estimate(cfg: ExperimentConfig) -> dict:
    p = cfg.params
    # zeta evaluations; beatty, weyl and limit-theorem make none
    evals = {"zeta": 1, "ztheta": 1}.get(cfg.command, 0)
    if cfg.command == "bergman":  # the midpoint grid, then zeta(z)
        rect = euler_product.Rectangle(float(p["x0"]), float(p["x1"]), float(p["y0"]), float(p["y1"]))
        nx, ny = rect.grid_shape(float(p["step"]))
        evals = nx * ny + 1 if p["f"] == "zeta" else 0
    estimate = {"dry_run": True, "estimated_evaluations": evals}
    if cfg.command in _LINES:
        build, line_builders = _LINES[cfg.command]
        args = build(p)
        # in the run's order, so that the first refusal is the run's
        costs = [zeta_core.progression_cost(*line)
                 for lines in line_builders for line in lines(*args)]
        estimate["estimated_evaluations"] = sum(c[0] for c in costs)
        estimate["estimated_terms"] = sum(c[1] for c in costs)
    if cfg.command == "meansquare":
        level, _, _, n = args  # built above
        estimate["estimated_euler_factors"] = n * level.m
    elif cfg.command == "limit-theorem":
        level, h, s0, n, trials = _limit_args(p)
        euler_product.check_limit_theorem(h, s0, n, trials)
        estimate["estimated_euler_factors"] = level.m * (n + trials)
    return estimate


def _merge_config(args: argparse.Namespace, argv: list[str]) -> ExperimentConfig:
    params = {k: v for k, v in vars(args).items() if k not in _NOT_PARAMS and v is not None}
    cfg = ExperimentConfig(
        command=args.command,
        params=params,
        seed=args.seed,
        output=args.output,
        format=args.format,
    )
    if args.config:
        file_cfg = config_roundtrip(args.config)
        if file_cfg.command != cfg.command:
            raise ParseError(
                f"config file command {file_cfg.command!r} does not match {cfg.command!r}"
            )
        # explicit flags win over file values
        given = {a[2:].split("=")[0].replace("-", "_") for a in argv if a.startswith("--")}
        for key, value in params.items():
            if key in given or key not in file_cfg.params:
                file_cfg.params[key] = value
        cfg.params = file_cfg.params
        for key in ("seed", "output", "format"):
            if getattr(file_cfg, key) is not None and key not in given:
                setattr(cfg, key, getattr(file_cfg, key))
    return cfg


def _zeta(p: dict, seed) -> tuple[dict, list | None]:
    value = zeta_core.zeta(complex(p["re"], p["im"]))
    print(_fmt_complex(value))
    return {"value": _fmt_complex(value)}, None


def _chi(p: dict, seed) -> tuple[dict, list | None]:
    value = zeta_core.chi(complex(p["re"], p["im"]))
    return {"value": _fmt_complex(value), "abs": abs(value)}, None


def _ztheta(p: dict, seed) -> tuple[dict, list | None]:
    t = float(p["t"])
    return {"theta": zeta_core.theta(t), "Z": zeta_core.hardy_z(t)}, None


def _uniqueness(p: dict, seed) -> tuple[dict, list | None]:
    f = dirichlet.power_of_two_indicator() if p["coeffs"] == "pow2" else dirichlet.constant_one()
    perm = dirichlet.identity_permutation()
    if p.get("swap"):
        try:
            n1, n2 = (int(x) for x in str(p["swap"]).split(","))
        except ValueError:
            raise ValueError(f"swap expects n1,n2, got {p['swap']!r}") from None
        perm = dirichlet.transposition(n1, n2)
    cert = dirichlet.uniqueness_bound(
        f, f,
        dirichlet.Progression(float(p["t1"]), float(p["delta1"])),
        dirichlet.Progression(float(p["t2"]), float(p["delta2"])),
        perm, int(p["n_max"]), int(p["m_max"]), float(p["tol"]),
    )
    if cert is None:
        return {"certificate": None}, None
    return {"certificate": {
        "tool": "zetalab", "witness_n": cert.n, "mu": cert.mu,
        "phi_mu": {"re": cert.phi_mu.real, "im": cert.phi_mu.imag},
        "b_n": cert.b_n, "b": cert.b, "scan_n_max": cert.scan_limits[0],
        "scan_m_max": cert.scan_limits[1], "tol": cert.tol,
    }}, None


def _beatty(p: dict, seed) -> tuple[dict, list | None]:
    pair = beatty_mod.BeattyPair.from_alpha(_resolve_alpha(str(p["alpha"])))
    rep = beatty_mod.rayleigh_partition_check(pair, int(p["check"]))
    return {
        "n_max": rep.n_max,
        "count_alpha": rep.count_alpha,
        "count_alpha_prime": rep.count_alpha_prime,
        "overlaps": int(rep.overlaps.size),
        "gaps": int(rep.gaps.size),
        "is_partition": rep.is_partition,
    }, [("value", "class")] + [(int(v), "overlap") for v in rep.overlaps] + [
        (int(v), "gap") for v in rep.gaps
    ]


def _weyl(p: dict, seed) -> tuple[dict, list | None]:
    n_total = int(p["N"])
    if p["mode"] == "linear":
        if "beta" not in p:
            raise ValueError("weyl --mode linear requires --beta")
        beta = float(p["beta"])
        if not math.isfinite(beta):
            raise ValueError(f"beta must be finite, got {beta}")
        rep = equidist.weyl_sum(lambda n: n * beta, float(p["freq"]), n_total)
    else:
        if "alpha" not in p:
            raise ValueError("weyl --mode beatty requires --alpha")
        pair = beatty_mod.BeattyPair.from_alpha(_resolve_alpha(str(p["alpha"])))
        freq = equidist.FrequencyVector(
            primes1=_parse_weights(str(p["m1"])),
            primes2=_parse_weights(str(p["m2"])),
            delta1=float(p["delta1"]),
            delta2=float(p["delta2"]),
        )
        rep = equidist.joint_beatty_weyl(
            pair, float(p["t1"]), float(p["t2"]), freq, n_total
        )
    rows = [("N", "magnitude")] + list(rep.trajectory)
    return {"N": rep.N, "magnitude": rep.sum_magnitude, "trajectory": rep.trajectory}, rows


def _meansquare_args(p: dict) -> tuple:
    level = euler_product.TruncationLevel.of(int(p["m"]))
    n_total = int(p["N"])
    shifts = float(p["shift_step"]) * np.arange(1, n_total + 1)
    return level, float(p["sigma"]), shifts, n_total


def _meansquare(p: dict, seed) -> tuple[dict, list | None]:
    return asdict(euler_product.mean_square_discrete(*_meansquare_args(p))), None


def _limit_args(p: dict) -> tuple:
    level = euler_product.TruncationLevel.of(int(p["m"]))
    return level, float(p["h"]), complex(float(p["sigma"]), 0.0), int(p["N"]), int(p["trials"])


def _limit_theorem(p: dict, seed) -> tuple[dict, list | None]:
    rep = euler_product.empirical_limit_theorem(*_limit_args(p), int(seed or 0))
    return {**asdict(rep), "s0": {"re": rep.s0.real, "im": rep.s0.imag},
            "note": "finitely many phases only; truncated surrogate of the limit law"}, None


def _hits_args(p: dict) -> tuple:
    grid = shift_search.VerticalGrid(
        s=complex(p["sigma"], p["im0"]), h=float(p["h"]), l=int(p["l"])
    )
    disk = shift_search.TargetDisk(
        a=complex(p["a_re"], p["a_im"]), epsilon=float(p["eps"])
    )
    return grid, disk, int(p["N"])


def _hits(p: dict, seed) -> tuple[dict, list | None]:
    hits, rep = shift_search.scan_disk_hits(*_hits_args(p))
    return asdict(rep), [("n", "max_dev")] + [(h.n, h.max_dev) for h in hits]


def _pair_args(p: dict) -> tuple:
    pair = beatty_mod.BeattyPair.from_alpha(_resolve_alpha(str(p["alpha"])))
    return (
        pair,
        float(p["t1"]), float(p["t2"]),
        float(p["delta1"]), float(p["delta2"]),
        np.array([complex(p["s_re"], p["s_im"])]),
        (complex(p["a1_re"], p["a1_im"]), complex(p["a2_re"], p["a2_im"])),
        float(p["eps"]), int(p["N"]),
    )


def _flip_args(p: dict) -> tuple:
    """The arguments of left_half_flip, t0 from the chi certificate scan."""
    sigma = float(p["sigma"])
    c = float(p["c"])
    if not 0.0 < c < math.inf:  # before the scan, which would blame the certificate
        raise ValueError(f"c must be finite and positive, got {c}")
    t_start = float(p["t_start"])
    chi_rep = zeta_core.chi_lower_bound_check(sigma, c, (2.0, t_start), 500)
    if chi_rep.t0 is None:
        raise ZetaLabError(f"|chi| >= {c} not certified below t = {t_start}")
    grid = shift_search.VerticalGrid(s=complex(sigma, t_start), h=float(p["h"]), l=int(p["l"]))
    return grid, float(p["r"]), c, int(p["N"]), chi_rep.t0


def _flip(p: dict, seed) -> tuple[dict, list | None]:
    rep = shift_search.left_half_flip(*_flip_args(p))
    return {"N": rep.N, "predicted": rep.predicted_hits, "confirmed": rep.confirmed_hits,
            "disagreements": rep.disagreements, "params": rep.params}, None


def _bergman(p: dict, seed) -> tuple[dict, list | None]:
    rect = euler_product.Rectangle(float(p["x0"]), float(p["x1"]), float(p["y0"]), float(p["y1"]))
    grid = rect.midpoint_grid(float(p["step"]))
    kind = str(p["f"])
    samples = {"one": np.ones_like, "s": np.asarray, "s2": np.square,
               "zeta": zeta_core.zeta_grid}[kind](grid)
    z = complex(p["z_re"], p["z_im"])
    bound = euler_product.bergman_sup_bound(samples, rect, z)
    f_z = zeta_core.zeta(z) if kind == "zeta" else {"one": 1.0 + 0j, "s": z, "s2": z * z}[kind]
    return {"bound": bound, "abs_f_z": abs(f_z), "holds": abs(f_z) <= bound}, None


# command -> function(params, seed) returning (results, CSV rows or None)
_COMMANDS = {
    "zeta": _zeta, "chi": _chi, "ztheta": _ztheta, "uniqueness": _uniqueness,
    "beatty": _beatty, "weyl": _weyl, "meansquare": _meansquare,
    "limit-theorem": _limit_theorem, "hits": _hits, "flip": _flip, "bergman": _bergman,
    "joint-hits": lambda p, seed: (asdict(shift_search.joint_beatty_hits(*_pair_args(p))), None),
    "sis": lambda p, seed: (asdict(shift_search.corollary_sis_density(*_pair_args(p))), None),
}
# command -> (argument builder, line builders): the run passes the
# arguments to the command's scan, and the dry-run to the builders of the
# lines that the scan, and any scan it runs, evaluates zeta on
_LINES = {
    "hits": (_hits_args, (shift_search.disk_hit_lines,)),
    "flip": (_flip_args, (shift_search.flip_lines,)),
    "joint-hits": (_pair_args, (shift_search.joint_beatty_lines,)),
    "sis": (_pair_args, (shift_search.sis_lines, shift_search.joint_beatty_lines)),
    "meansquare": (_meansquare_args, (euler_product.mean_square_lines,)),
}


@functools.cache
def _parser() -> _Parser:
    """The parser run uses, built once per process: parse_args keeps no
    state between calls."""
    return build_parser()


def run(argv: list[str]) -> int:
    parser = _parser()
    args = parser.parse_args(argv)
    try:
        cfg = _merge_config(args, argv)
        if cfg.format == "csv" and cfg.command not in _CSV_COMMANDS:
            message = f"{cfg.command} has no CSV report (only {', '.join(_CSV_COMMANDS)} have one)"
            if args.format == "csv":  # from the flag: a usage error
                parser.error(message)
            raise ParseError(message)
        warn_unknown_keys(cfg, {k for k in vars(args) if k not in _NOT_PARAMS})
        if args.dry_run:
            print(json.dumps({"config": cfg.as_dict(), **_cost_estimate(cfg)}, sort_keys=True))
            return 0
        _write_report(cfg, *_COMMANDS[cfg.command](cfg.params, cfg.seed))
        return 0
    except (ZetaLabError, ValueError, KeyError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except Exception as exc:  # pragma: no cover
        sys.stderr.write(f"internal error: {exc}\n")
        return 1


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
