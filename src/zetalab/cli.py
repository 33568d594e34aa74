"""Batch command-line surface: every experiment behind a subcommand with
reproducible configuration and machine-readable reports.

Each command function imports the modules it runs, beyond zeta_core,
when called, so that a process loads only its own command's modules, and
run builds the subparser of its own command alone.

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

from . import zeta_core
from .config import ExperimentConfig, config_roundtrip, warn_unknown_keys
from .errors import ParseError, PoleAt1, ZetaLabError

USAGE_ERROR = 64
_CSV_COMMANDS = ("hits", "beatty", "weyl", "joint-weyl")  # every other command writes JSON only
_NOT_OPTIONS = ("command", "config", "dry_run")  # no config file key sets these
_NOT_RECORDED = (*_NOT_OPTIONS, "threads")


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        sys.exit(USAGE_ERROR)


def _beatty_pair(alpha: str):
    """The pair of a named irrational (golden, sqrt2, sqrt3) or of a literal alpha."""
    from . import beatty
    return beatty.BeattyPair.from_alpha(beatty.NAMED_IRRATIONALS.get(alpha) or float(alpha))


def _fmt_complex(z: complex) -> str:
    return f"{z.real:.17g}{z.imag:+.17g}j"


def _write_report(cfg: ExperimentConfig, results: dict, csv_lines: list | None) -> None:
    """Print the results; write the report to the output and in the format
    that cfg records.  csv_lines are the CSV report's lines, each ending in
    a newline, or None where the parser offers no --format csv."""
    output = cfg.params.get("output")
    if output:
        if cfg.params["format"] == "csv":
            text = "".join(csv_lines)
        else:
            report = {"config": cfg.as_dict(), "results": results,
                      "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat()}
            text = json.dumps(report, sort_keys=True, indent=2, default=str) + "\n"
        with open(output, "w", newline="") as fh:  # "\n" line ends on every platform
            fh.write(text)
    print(json.dumps(results, sort_keys=True, default=str))


class _Weights(str):
    """A --m1/--m2 value: the text as given, which reports record, with its
    prime -> weight map in .weights."""

    weights: dict[int, int]


def _weights(text: str) -> _Weights:
    """prime:weight[,prime:weight...], a bare prime weighing 1; a malformed
    entry or a repeated prime is the option's usage error, naming the entry."""
    out = _Weights(text)
    out.weights = {}
    for item in text.split(",") if text else ():
        prime, _, weight = item.partition(":")
        try:
            p, w = int(prime), int(weight) if weight else 1
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"invalid entry {item!r}: expected prime:weight with integers") from None
        if p in out.weights:
            raise argparse.ArgumentTypeError(f"invalid entry {item!r}: prime {p} repeated")
        out.weights[p] = w
    return out


def _add_common(p: argparse.ArgumentParser, formats: tuple[str, ...]) -> None:
    p.add_argument("--output", help="report path")
    p.add_argument("--format", choices=formats, default="json")
    p.add_argument("--threads", type=int, default=1,
                   help="accepted and ignored: every command runs on one thread")
    p.add_argument("--dry-run", action="store_true",
                   help="print resolved config and cost estimate, do not evaluate")
    p.add_argument("--config", help="key = value config file; flags override")


# command -> its help line, in the order that usage and --help list them
_HELP = {
    "zeta": "evaluate zeta(s)", "chi": "evaluate the functional-equation factor",
    "ztheta": "theta(t) and Hardy Z(t)", "uniqueness": "uniqueness certificate scan",
    "beatty": "Rayleigh partition check", "weyl": "Weyl sum decay of x_n = n beta",
    "joint-weyl": "joint Beatty Weyl sum decay",
    "meansquare": "discrete mean-square approximation",
    "limit-theorem": "empirical discrete limit theorem",
    "hits": "disk-hit scan on a vertical grid",
    "joint-hits": "joint Beatty-progression hit density",
    "sis": "swap-permutation hit density and its transferred bound",
    "flip": "left-half flip via the functional equation",
    "bergman": "Bergman sup bound on a rectangle",
}


def _add_options(p: argparse.ArgumentParser, name: str) -> None:
    """The options of command `name`, beyond the common ones."""
    if name in ("zeta", "chi"):
        p.add_argument("--re", type=float, required=True)
        p.add_argument("--im", type=float, default=0.0)
    elif name == "ztheta":
        p.add_argument("--t", type=float, required=True)
    elif name == "uniqueness":
        p.add_argument("--t1", type=float, default=0.0)
        p.add_argument("--t2", type=float, default=0.0)
        p.add_argument("--delta1", type=float, required=True)
        p.add_argument("--delta2", type=float, required=True)
        p.add_argument("--n-max", type=int, default=50)
        p.add_argument("--m-max", type=int, default=1000)
        p.add_argument("--tol", type=float)
        p.add_argument("--coeffs", choices=("zeta", "pow2"), default="zeta")
        p.add_argument("--swap", help="n1,n2 for a transposition permutation")
    elif name == "beatty":
        p.add_argument("--alpha", required=True, help="golden|sqrt2|sqrt3 or a literal")
        p.add_argument("--check", type=int, required=True, help="partition bound n_max")
    elif name == "weyl":
        p.add_argument("--beta", type=float, required=True)
        p.add_argument("--freq", type=float, default=1.0)
        p.add_argument("--N", type=int, required=True)
    elif name == "joint-weyl":
        p.add_argument("--alpha", required=True, help="golden|sqrt2|sqrt3 or a literal")
        p.add_argument("--m1", type=_weights, default="", help="prime:weight[,prime:weight...]")
        p.add_argument("--m2", type=_weights, default="")
        p.add_argument("--t1", type=float, default=0.0)
        p.add_argument("--t2", type=float, default=0.0)
        p.add_argument("--delta1", type=float, default=1.0)
        p.add_argument("--delta2", type=float, default=1.0)
        p.add_argument("--N", type=int, required=True)
    elif name == "meansquare":
        p.add_argument("--sigma", type=float, required=True)
        p.add_argument("--m", type=int, required=True)
        p.add_argument("--N", type=int, required=True)
        p.add_argument("--shift-step", type=float, default=1.0, help="x_n = step * n")
    elif name == "limit-theorem":
        p.add_argument("--m", type=int, required=True)
        p.add_argument("--h", type=float, required=True)
        p.add_argument("--sigma", type=float, default=0.75)
        p.add_argument("--N", type=int, required=True)
        p.add_argument("--trials", type=int, required=True)
        p.add_argument("--seed", type=int, default=0)
    elif name == "hits":
        p.add_argument("--sigma", type=float, required=True)
        p.add_argument("--im0", type=float, default=0.0)
        p.add_argument("--h", type=float, required=True)
        p.add_argument("--l", type=int, required=True)
        p.add_argument("--a-re", type=float, required=True)
        p.add_argument("--a-im", type=float, default=0.0)
        p.add_argument("--eps", type=float, required=True)
        p.add_argument("--N", type=int, required=True)
    elif name in ("joint-hits", "sis"):
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
    elif name == "flip":
        p.add_argument("--sigma", type=float, required=True)
        p.add_argument("--t-start", type=float, required=True)
        p.add_argument("--h", type=float, required=True)
        p.add_argument("--l", type=int, required=True)
        p.add_argument("--r", type=float, required=True)
        p.add_argument("--c", type=float, default=1.0)
        p.add_argument("--N", type=int, required=True)
    elif name == "bergman":
        p.add_argument("--f", choices=("one", "s", "s2", "zeta"), required=True)
        p.add_argument("--step", type=float, default=1e-2)
        p.add_argument("--x0", type=float, default=0.55)
        p.add_argument("--x1", type=float, default=0.95)
        p.add_argument("--y0", type=float, default=0.05)
        p.add_argument("--y1", type=float, default=1.05)
        p.add_argument("--z-re", type=float, required=True)
        p.add_argument("--z-im", type=float, required=True)
    _add_common(p, ("json", "csv") if name in _CSV_COMMANDS else ("json",))


def _build(names, metavar: str | None = None) -> _Parser:
    """The parser with the subparsers of `names`, its command positional
    shown as `metavar` (argparse's default, the list of names, when None)."""
    parser = _Parser(prog="zetalab")
    sub = parser.add_subparsers(dest="command", required=True, metavar=metavar)
    for name in names:
        _add_options(sub.add_parser(name, help=_HELP[name]), name)
    return parser


def build_parser() -> _Parser:
    return _build(_HELP)


def _line_estimate(args: tuple, line_builder) -> dict:
    """The zeta values and terms of the lines the run evaluates zeta on,
    which line_builder(*args) builds with the run's refusals."""
    costs = [zeta_core.progression_cost(*line) for line in line_builder(*args)]
    return {"estimated_evaluations": sum(c[0] for c in costs),
            "estimated_terms": sum(c[1] for c in costs)}


def _zeta(opt):
    s = zeta_core.check_zeta(complex(opt.re, opt.im))
    if opt.dry_run:
        return {"estimated_evaluations": 1}
    value = zeta_core.zeta(s)
    print(_fmt_complex(value))
    return {"value": _fmt_complex(value)}, None


def _chi(opt):
    s = zeta_core.check_chi(complex(opt.re, opt.im))
    if opt.dry_run:
        return {"estimated_evaluations": 0}
    value = zeta_core.chi(s)
    return {"value": _fmt_complex(value), "abs": abs(value)}, None


def _ztheta(opt):
    zeta_core.check_theta(opt.t)
    zeta_core.check_zeta(0.5 + 1j * opt.t)  # hardy_z's point
    if opt.dry_run:
        return {"estimated_evaluations": 1}
    return {"theta": zeta_core.theta(opt.t), "Z": zeta_core.hardy_z(opt.t)}, None


def _uniqueness(opt):
    from . import dirichlet
    if opt.tol is None:  # set on opt, so that the report records the tol used
        opt.tol = dirichlet.DEFAULT_TOL
    f = dirichlet.power_of_two_indicator() if opt.coeffs == "pow2" else dirichlet.constant_one()
    perm = dirichlet.identity_permutation()
    if opt.swap:
        try:
            n1, n2 = (int(x) for x in opt.swap.split(","))
        except ValueError:
            raise ValueError(f"swap expects n1,n2, got {opt.swap!r}") from None
        if min(n1, n2) < 1:
            raise ValueError(f"swap expects two positive integers n1,n2, got {opt.swap!r}")
        perm = dirichlet.transposition(n1, n2)
    p1 = dirichlet.Progression(opt.t1, opt.delta1)
    p2 = dirichlet.Progression(opt.t2, opt.delta2)
    limits = opt.n_max, opt.m_max, opt.tol
    if opt.dry_run:  # the run refuses the same in uniqueness_bound
        dirichlet.check_uniqueness_bound(*limits)
        # phi at every m <= m_max for each n, or at the powers of two that
        # pow2's support hint leaves; a scan that finds mu stops sooner
        per_n = opt.m_max.bit_length() if opt.coeffs == "pow2" else opt.m_max
        return {"estimated_evaluations": 0, "estimated_phi_evaluations": opt.n_max * per_n}
    cert = dirichlet.uniqueness_bound(f, f, p1, p2, perm, *limits)
    if cert is None:
        return {"certificate": None}, None
    return {"certificate": {
        "tool": "zetalab", "witness_n": cert.n, "mu": cert.mu,
        "phi_mu": {"re": cert.phi_mu.real, "im": cert.phi_mu.imag},
        "b_n": cert.b_n, "b": cert.b, "scan_n_max": cert.scan_limits[0],
        "scan_m_max": cert.scan_limits[1], "tol": cert.tol,
    }}, None


def _beatty(opt):
    from . import beatty
    pair = _beatty_pair(opt.alpha)
    if opt.dry_run:
        beatty.check_rayleigh_partition(pair, opt.check)
        return {"estimated_evaluations": 0}
    rep = beatty.rayleigh_partition_check(pair, opt.check)
    return {
        "n_max": rep.n_max,
        "count_alpha": rep.count_alpha,
        "count_alpha_prime": rep.count_alpha_prime,
        "overlaps": int(rep.overlaps.size),
        "gaps": int(rep.gaps.size),
        "is_partition": rep.is_partition,
    }, ["value,class\n", *(f"{v},overlap\n" for v in rep.overlaps.tolist()),
        *(f"{v},gap\n" for v in rep.gaps.tolist())]


def _weyl_report(rep) -> tuple[dict, list]:
    lines = ["N,magnitude\n", *(f"{n},{m:.17g}\n" for n, m in rep.trajectory)]
    return {"N": rep.N, "magnitude": rep.sum_magnitude, "trajectory": rep.trajectory}, lines


def _weyl(opt):
    from . import equidist
    beta = opt.beta
    if not math.isfinite(beta):
        raise ValueError(f"beta must be finite, got {beta}")
    if opt.dry_run:  # the run refuses the same, first thing in the sum
        equidist.check_weyl_sum(opt.freq, opt.N)
        return {"estimated_evaluations": 0}
    return _weyl_report(equidist.weyl_sum(lambda n: n * beta, opt.freq, opt.N))


def _joint_weyl(opt):
    from . import equidist
    pair = _beatty_pair(opt.alpha)
    freq = equidist.FrequencyVector(opt.m1.weights, opt.m2.weights, opt.delta1, opt.delta2)
    if opt.dry_run:  # the run refuses the same, first thing in the sum
        equidist.check_joint_beatty_weyl(pair, opt.t1, opt.t2, opt.N)
        return {"estimated_evaluations": 0}
    return _weyl_report(equidist.joint_beatty_weyl(pair, opt.t1, opt.t2, freq, opt.N))


def _meansquare(opt):
    from . import euler_product
    level = euler_product.TruncationLevel.of(opt.m)
    args = opt.sigma, opt.shift_step, opt.N
    if opt.dry_run:
        return {**_line_estimate(args, euler_product.mean_square_lines),
                "estimated_euler_sources": euler_product.euler_sources(level, opt.sigma)[0].size}
    euler_product.mean_square_lines(*args)  # every refusal, before the N shifts are built
    shifts = opt.shift_step * np.arange(1, opt.N + 1)
    return asdict(euler_product.mean_square_discrete(level, opt.sigma, shifts, opt.N)), None


def _limit_theorem(opt):
    from . import euler_product
    level = euler_product.TruncationLevel.of(opt.m)
    s0 = complex(opt.sigma, 0.0)
    args = level, opt.h, s0, opt.N, opt.trials, opt.seed
    if opt.dry_run:
        euler_product.check_limit_theorem(*args)
        return {"estimated_evaluations": 0,
                "estimated_euler_sources": euler_product.euler_sources(level, s0.real)[0].size,
                "estimated_euler_factors": level.m * opt.trials}  # the random model's
    rep = euler_product.empirical_limit_theorem(*args)
    return {**asdict(rep), "s0": {"re": rep.s0.real, "im": rep.s0.imag},
            "note": "finitely many phases only; truncated surrogate of the limit law"}, None


def _hits(opt):
    from . import shift_search
    args = (shift_search.VerticalGrid(s=complex(opt.sigma, opt.im0), h=opt.h, l=opt.l),
            shift_search.TargetDisk(a=complex(opt.a_re, opt.a_im), epsilon=opt.eps), opt.N)
    if opt.dry_run:
        return _line_estimate(args, shift_search.disk_hit_lines)
    n, max_dev, rep = shift_search.scan_disk_hits(*args)
    rows = (f"{k},{d:.17g}\n" for k, d in zip(n.tolist(), max_dev.tolist()))
    return asdict(rep), ["n,max_dev\n", *rows]


def _pair_scan(scan: str, line_builder: str):
    """joint-hits and sis: a shift_search scan and the builder of the lines
    it evaluates zeta on, looked up by name at each call, so that a wrapper
    set on the module attribute sees the call."""
    def command(opt):
        from . import shift_search
        args = (_beatty_pair(opt.alpha), opt.t1, opt.t2, opt.delta1, opt.delta2,
                np.array([complex(opt.s_re, opt.s_im)]),
                (complex(opt.a1_re, opt.a1_im), complex(opt.a2_re, opt.a2_im)), opt.eps, opt.N)
        if opt.dry_run:
            return _line_estimate(args, getattr(shift_search, line_builder))
        return asdict(getattr(shift_search, scan)(*args)), None
    return command


def _flip(opt):
    from . import shift_search
    args = (shift_search.VerticalGrid(s=complex(opt.sigma, opt.t_start), h=opt.h, l=opt.l),
            opt.r, opt.c, opt.N)
    if opt.dry_run:
        return _line_estimate(args, shift_search.flip_lines)
    rep = asdict(shift_search.left_half_flip(*args))
    return {"predicted": rep.pop("predicted_hits"), "confirmed": rep.pop("confirmed_hits"), **rep}, None


def _bergman(opt):
    from . import euler_product
    rect, z = euler_product.Rectangle(opt.x0, opt.x1, opt.y0, opt.y1), complex(opt.z_re, opt.z_im)
    nx, ny = rect.grid_shape(opt.step)
    if opt.f == "zeta":  # Bergman's bound needs f holomorphic on the closed rectangle
        nearest = complex(min(max(1.0, rect.x0), rect.x1), min(max(0.0, rect.y0), rect.y1))
        if abs(nearest - 1.0) < zeta_core.POLE_GUARD:
            raise PoleAt1(f"{rect} comes within {zeta_core.POLE_GUARD} of the pole of zeta at 1")
        corners = rect.corner_midpoints(opt.step)  # the grid's axes are monotone, the strip a box
        zeta_core.check_points(corners.real, corners.imag)
    euler_product.check_bergman_sup_bound(rect, z)
    if opt.f == "zeta":
        zeta_core.check_zeta(z)
    if opt.dry_run:
        return {"estimated_evaluations": nx * ny + 1 if opt.f == "zeta" else 0}
    samples = {"one": np.ones_like, "s": np.asarray, "s2": np.square,
               "zeta": zeta_core.zeta_grid}[opt.f](rect.midpoint_grid(opt.step))
    bound = euler_product.bergman_sup_bound(samples, rect, z)
    f_z = zeta_core.zeta(z) if opt.f == "zeta" else {"one": 1.0 + 0j, "s": z, "s2": z * z}[opt.f]
    return {"bound": bound, "abs_f_z": abs(f_z), "holds": abs(f_z) <= bound}, None


# command -> function(opt), opt its parsed arguments: each builds its
# arguments and runs all of its refusals, then returns a dry-run's cost
# estimate, or runs and returns (results, CSV rows or None)
_COMMANDS = {
    "zeta": _zeta, "chi": _chi, "ztheta": _ztheta, "uniqueness": _uniqueness,
    "beatty": _beatty, "weyl": _weyl, "joint-weyl": _joint_weyl, "meansquare": _meansquare,
    "limit-theorem": _limit_theorem, "hits": _hits, "flip": _flip, "bergman": _bergman,
    "joint-hits": _pair_scan("joint_beatty_hits", "joint_beatty_lines"),
    "sis": _pair_scan("corollary_sis_density", "sis_lines"),
}


@functools.cache
def _parser(command: str | None) -> _Parser:
    """The parser run uses: the subparser of `command` alone, or every
    subparser when argv names no command (--help, a typo, nothing).  A lone
    subparser's usage line names every command, as the full parser's does;
    only the full parser meets a missing or unknown command, whose errors
    name the positional "command".  Built once per command and process:
    parse_args keeps no state between calls."""
    if command is None:
        return build_parser()
    return _build((command,), metavar="{" + ",".join(_HELP) + "}")


def _with_config(parser: _Parser, args: argparse.Namespace, argv: list[str]) -> argparse.Namespace:
    """argv parsed again with the --config file's values as `--option=value`
    flags before argv's own, so that each value goes through its option's
    parser and an explicit flag wins."""
    file_cfg = config_roundtrip(args.config)
    if file_cfg.command != args.command:
        raise ParseError(
            f"config file command {file_cfg.command!r} does not match {args.command!r}")
    options = {k for k in vars(args) if k not in _NOT_OPTIONS}
    warn_unknown_keys(file_cfg, options)
    flags = [f"--{k.replace('_', '-')}={v}" for k, v in file_cfg.params.items() if k in options]
    return parser.parse_args([args.command, *flags, *argv[1:]])


def run(argv: list[str]) -> int:
    parser = _parser(argv[0] if argv and argv[0] in _HELP else None)
    args = parser.parse_args(argv)
    try:
        if args.config:
            args = _with_config(parser, args, argv)
        out = _COMMANDS[args.command](args)
        cfg = ExperimentConfig(args.command, {
            k: v for k, v in vars(args).items() if k not in _NOT_RECORDED and v is not None})
        if args.dry_run:
            print(json.dumps({"config": cfg.as_dict(), "dry_run": True, **out}, sort_keys=True))
        else:
            _write_report(cfg, *out)
        return 0
    except (ZetaLabError, ValueError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except Exception as exc:  # pragma: no cover
        sys.stderr.write(f"internal error: {exc}\n")
        return 1


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
