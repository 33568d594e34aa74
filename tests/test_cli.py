import argparse
import json
import logging
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zetalab import cli
from zetalab import config as cf
from zetalab import dirichlet
from zetalab import equidist as eq
from zetalab import euler_product as ep
from zetalab import zeta_core as zc
from zetalab.cli import build_parser, run
from zetalab.errors import ParseError


HITS = ["hits", "--sigma", "0.75", "--im0", "10", "--h", "1", "--l", "1",
        "--a-re", "1", "--eps", "0.5", "--N", "200"]
UNIQUENESS = ["uniqueness", "--delta1", "1", "--delta2", "2", "--n-max", "1"]


def run_cli(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _count_kernel_work(monkeypatch) -> list[tuple[int, int]]:
    """Patch zeta_core so that each kernel call appends (zeta values
    computed, terms summed): a product grid sums points times its term
    count, a NUFFT segment spreads one source per term, a scalar call is
    one value."""
    work = []
    product, nufft, scalar = zc._product_grid, zc._nufft_segment, zc.zeta

    def counting_product(s, x, y):
        n_terms = zc._grid_plan(float(x.min()), float(np.abs(y).max()))[0]
        work.append((s.size, s.size * n_terms))
        return product(s, x, y)

    def counting_nufft(sigma, t0, delta, lo, count, n_terms):
        work.append((count, n_terms))
        return nufft(sigma, t0, delta, lo, count, n_terms)

    def counting_scalar(s):
        work.append((1, 0))
        return scalar(s)

    monkeypatch.setattr(zc, "_product_grid", counting_product)
    monkeypatch.setattr(zc, "_nufft_segment", counting_nufft)
    monkeypatch.setattr(zc, "zeta", counting_scalar)
    return work


def _subcommands_of(parser: argparse.ArgumentParser) -> dict[str, argparse.ArgumentParser]:
    return next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices


def _subcommands() -> dict[str, argparse.ArgumentParser]:
    return _subcommands_of(build_parser())


def _options(parser: argparse.ArgumentParser) -> dict[str, argparse.Action]:
    return {o: a for a in parser._actions for o in a.option_strings}


def _no_zeta(s):
    raise AssertionError("evaluated before the report format was checked")


# (argv, name): a zero-size run, refused by name
ZERO_SIZE = [
    (["hits", "--sigma", "0.75", "--h", "1", "--l", "1", "--a-re", "1", "--eps", "0.5",
      "--N", "0"], "N"),
    (["joint-hits", "--alpha", "golden", "--s-re", "0.75", "--a1-re", "1", "--a2-re", "1",
      "--eps", "0.5", "--N", "0"], "N"),
    (["sis", "--alpha", "golden", "--s-re", "0.75", "--a1-re", "1", "--a2-re", "1",
      "--eps", "0.5", "--N", "0"], "N"),
    (["meansquare", "--sigma", "0.75", "--m", "5", "--N", "0"], "N"),
    (["limit-theorem", "--m", "5", "--h", "1", "--N", "0", "--trials", "10"], "N"),
    (["limit-theorem", "--m", "5", "--h", "1", "--N", "10", "--trials", "0"], "trials"),
    (["flip", "--sigma", "0.3", "--t-start", "50", "--h", "1", "--l", "2", "--r", "1",
      "--N", "0"], "N"),
    (["limit-theorem", "--m", "0", "--h", "1", "--N", "10", "--trials", "10"], "m"),
    *[(["meansquare", "--sigma", "0.75", "--m", m, "--N", "10"], "m") for m in ("0", "-3")],
    (["weyl", "--beta", "1.5", "--N", "0"], "N"),
    (["joint-weyl", "--alpha", "golden", "--m1", "2:1", "--N", "0"], "N"),
    (["beatty", "--alpha", "golden", "--check", "0"], "n_max"),
    *[(["uniqueness", "--delta1", "1", "--delta2", "2", flag, "0"], name)
      for flag, name in (("--n-max", "n_max"), ("--m-max", "m_max"))],
]

# (argv, message): a refused parameter
BAD_PARAMETER = [
    *[(["bergman", "--f", "s", "--z-re", "0.75", "--z-im", "0.5", "--step", step],
       "step must be finite and positive") for step in ("0", "-1", "inf", "nan")],
    (["weyl", "--beta", "1.5", "--freq", "0", "--N", "10"], "freq must be finite and nonzero"),
    *[(argv, "alpha must be finite and exceed 1") for argv in (
        ["beatty", "--alpha", "1", "--check", "10"],
        ["joint-weyl", "--alpha", "1.0", "--m1", "2:1", "--N", "10"],
        *[[cmd, "--alpha", "1.0", "--s-re", "0.75", "--a1-re", "1", "--a2-re", "1",
           "--eps", "0.5", "--N", "10"] for cmd in ("sis", "joint-hits")],
    )],
    *[(["joint-weyl", "--alpha", "golden", "--m1", "2:1", "--N", "10", flag, value], message)
      for flag, value, message in (
        ("--delta1", "nan", "delta1 must be finite and positive"),
        ("--delta2", "inf", "delta2 must be finite and positive"),
        ("--t1", "inf", "t1 must be finite"),
        ("--t2", "nan", "t2 must be finite"),
    )],
    (["weyl", "--beta", "1.5", "--freq", "nan", "--N", "10"], "freq must be finite and nonzero"),
    (["weyl", "--beta", "inf", "--N", "10"], "beta must be finite"),
    *[(["bergman", "--f", f, "--z-re", "0.75", "--z-im", "0.5", "--step", "1e-320", *dry],
       "step 1e-320 gives an infinite number of grid cells")
      for f, dry in (("s", []), ("zeta", ["--dry-run"]))],
    # NaN and infinity are refused by name before any zeta is evaluated
    (["limit-theorem", "--m", "5", "--h", "nan", "--N", "10", "--trials", "10"],
     "h must be finite and positive"),
    (["joint-hits", "--alpha", "golden", "--eps", "nan", "--s-re", "0.75", "--a1-re", "1",
      "--a2-re", "1", "--N", "10"], "epsilon must be finite and positive"),
    ([*HITS[:-4], "--eps", "nan", "--N", "10"], "epsilon must be finite and positive"),
    (["flip", "--sigma", "0.3", "--t-start", "50", "--h", "1", "--l", "2", "--r", "nan",
      "--N", "10"], "r must be finite and positive"),
    *[(["sis", "--alpha", "golden", flag, value, "--s-re", "0.75", "--a1-re", "1",
        "--a2-re", "1", "--eps", "0.5", "--N", "10"], message) for flag, value, message in (
        ("--t1", "inf", "t1 must be finite"),
        ("--delta2", "nan", "delta2 must be finite"),
    )],
    (["hits", "--sigma", "0.75", "--im0", "10", "--h", "nan", "--l", "1", "--a-re", "1",
      "--eps", "0.5", "--N", "10"], "h must be finite and positive"),
    *[(["uniqueness", "--delta1", "1", "--delta2", "2", "--n-max", "1", "--m-max", "100",
        "--tol", tol], "tol must be finite and positive") for tol in ("nan", "inf")],
    (["bergman", "--f", "s", "--z-re", "nan", "--z-im", "0.5"],
     "z = (nan+0.5j) is not strictly inside"),
    (["meansquare", "--sigma", "0.75", "--m", "5", "--N", "10", "--shift-step", "nan"],
     "shift step h must be finite and positive, got nan"),
    (["joint-weyl", "--alpha", "golden", "--N", "10"], "at least one weight must be nonzero"),
    *[(["ztheta", "--t", t], f"theta requires finite t >= 2, got {t}")
      for t in ("nan", "inf")],
    (["uniqueness", "--delta1", "inf", "--delta2", "1", "--n-max", "1", "--m-max", "10"],
     "delta must be finite and positive, got inf"),
    (["uniqueness", "--t1", "nan", "--delta1", "1", "--delta2", "2", "--n-max", "2",
      "--m-max", "10"], "t must be finite, got nan"),
    *[(["uniqueness", "--delta1", "1", "--delta2", "2", "--n-max", "1", "--m-max", "100",
        "--swap", swap], f"swap expects n1,n2, got '{swap}'") for swap in ("1", "1,2,3", "1,x")],
    *[(["zeta", "--re", re, "--im", im], message) for re, im, message in (
        ("-5", "0", "s = (-5+0j) outside the certified strip"),
        ("1", "0", "s = (1+0j) is within 1e-12 of the pole at 1"),
        ("0.5", "1e6", "s = (0.5+1000000j) outside the certified strip"),
    )],
    *[(["chi", "--re", re, "--im", im], message) for re, im, message in (
        ("50", "0", "s = (50+0j) outside the certified strip"),
        ("0.5", "nan", "s = (0.5+nanj) outside the certified strip"),
        ("2", "0", "Gamma(1 - s) pole at s = (2+0j)"),
    )],
    (["ztheta", "--t", "1"], "theta requires finite t >= 2, got 1.0"),
    (["ztheta", "--t", "5e4"], "s = (0.5+50000j) outside the certified strip"),
    *[(argv, "21 * 2.428571428571429 is within 1e-09 of an integer") for argv in (
        ["beatty", "--alpha", "1.7", "--check", "100"],
        ["joint-weyl", "--alpha", "1.7", "--m1", "2:1", "--N", "100000"],
    )],
    (["uniqueness", "--delta1", "1", "--delta2", "2", "--swap", "0,5", "--n-max", "6"],
     "swap expects two positive integers n1,n2, got '0,5'"),
    (["bergman", "--f", "s", "--z-re", "0.2", "--z-im", "0.5"],
     "z = (0.2+0.5j) is not strictly inside"),
    (["bergman", "--f", "zeta", "--x0", "-2", "--z-re", "0.75", "--z-im", "0.5"],
     "grid point (-1.995+0.055j) outside the certified strip"),
    # zeta has a pole in the rectangle, so Bergman's bound does not apply
    (["bergman", "--f", "zeta", "--x0", "0.55", "--x1", "1.45", "--y0", "-0.5", "--y1", "0.5",
      "--z-re", "0.75", "--z-im", "0.2"],
     "Rectangle(x0=0.55, x1=1.45, y0=-0.5, y1=0.5) comes within 1e-12 of the pole of zeta at 1"),
    # non-finite targets, which no disk of finite radius holds
    *[([*HITS[:-4], flag, value, "--eps", "0.5", "--N", "10"], f"a must be finite, got {a}")
      for flag, value, a in (("--a-re", "nan", "(nan+0j)"), ("--a-im", "inf", "(1+infj)"))],
    *[([cmd, "--alpha", "golden", "--s-re", "0.75", "--a1-re", "1", "--a2-re", "1",
        flag, value, "--eps", "0.5", "--N", "10"], message)
      for cmd, flag, value, message in (
          ("joint-hits", "--a1-re", "nan", "a1 must be finite, got (nan+0j)"),
          ("sis", "--a2-re", "inf", "a2 must be finite, got (inf+0j)"),
      )],
    # the scan's first height past t_max, named by the kernel's strip check
    (["hits", "--sigma", "0.75", "--im0", "29995", "--h", "1", "--l", "1", "--a-re", "1",
      "--eps", "0.6", "--N", "10"], "grid point (0.75+30001j) outside the certified strip"),
    (["limit-theorem", "--m", "5", "--h", "1", "--N", "10", "--trials", "10", "--seed", "-1"],
     "seed must be non-negative, got -1"),
    *[(["limit-theorem", "--m", "5", "--h", h, "--N", "10", "--trials", "10"],
       f"h * N * log p_m must be below 2^52, got h = {float(h)}, N = 10, p_m = 11")
      for h in ("1e308", "1e300")],
    # a weight's key must be a prime: 4:1 would give 2:2's sum, 1:1 a zero
    # frequency, and -3:1 the logarithm of a negative number
    *[(["joint-weyl", "--alpha", "golden", f"--{option}={value}", "--N", "10"], message)
      for option, value, message in (
          ("m1", "4:1", "primes1 key 4 is not a prime"),
          ("m1", "1:1", "primes1 key 1 is not a prime"),
          ("m1", "-3:1", "primes1 key -3 is not a prime"),
          ("m2", "2:1,9:2", "primes2 key 9 is not a prime"),
      )],
    # a key from psi_13 on, beyond the range where is_prime is exact
    (["joint-weyl", "--alpha", "golden", "--m1", "3317044064679887385961981:1", "--N", "10"],
     "is_prime decides n below psi_13 = 3317044064679887385961981 only"),
    # ... and named by its key
    (["joint-weyl", "--alpha", "golden", "--m1", "3317044064679887385961981:1", "--N", "10"],
     "is_prime decides n below psi_13 = 3317044064679887385961981 only, got "
     "3317044064679887385961981: primes1 key 3317044064679887385961981 cannot be checked"),
    # |chi| >= c is certified in closed form from the first direct height t_start + h on
    *[(["flip", "--sigma", sigma, "--t-start", t_start, "--h", "1", "--l", "1", "--r", "1",
        *c, "--N", "10"], message) for sigma, t_start, c, message in (
        ("0.3", "1", [], "|chi| >= 1.0 not certified at sigma 0.3, t 2.0: b = 0.77"),
        ("0.45", "100", ["--c", "10"], "|chi| >= 10.0 not certified at sigma 0.45, t 101.0: b = 1.14"),
        ("0.3", "inf", [], "t must be finite and positive, got inf"),
    )],
    # a pair scan's steps, as the other line commands' steps
    *[([cmd, "--alpha", "golden", "--s-re", "0.75", "--a1-re", "1", "--a2-re", "1",
        "--eps", "0.5", "--N", "10", flag, value], f"{flag[2:]} must be finite and positive")
      for cmd, flag, value in (("joint-hits", "--delta1", "-1"), ("joint-hits", "--delta2", "0"),
                               ("sis", "--delta1", "0"), ("sis", "--delta2", "-1"))],
    # a literal pair scan checks its floors in order before it floors its last n, as
    # beatty and joint-weyl do; alpha = 1.5, alpha' = 3 floors exactly, but 2 is in
    # neither class
    *[([cmd, "--alpha", "1.7", "--s-re", "0.75", "--a1-re", "1", "--a2-re", "1", "--eps", "0.7",
        "--N", "100", "--delta1", "0.001", "--delta2", "0.001"],
       "21 * 2.428571428571429 is within 1e-09 of an integer") for cmd in ("joint-hits", "sis")],
    (["sis", "--alpha", "1.5", "--s-re", "0.75", "--a1-re", "1", "--a2-re", "1", "--eps", "0.7",
      "--N", "100"], "2 lies in neither Beatty class of alpha = 1.5"),
]


class TestExitCodes:
    def test_usage_error_is_64(self):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["zeta"])  # missing --re
        assert exc.value.code == 64

    def test_unknown_command_is_64(self):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["frobnicate"])
        assert exc.value.code == 64

    def test_domain_error_is_2(self, capsys):
        code, _, err = run_cli(capsys, "zeta", "--re", "-5")
        assert code == 2
        assert "error:" in err

    def test_pole_is_2(self, capsys):
        code, _, _ = run_cli(capsys, "zeta", "--re", "1")
        assert code == 2

    def test_internal_key_error_is_1(self, capsys, monkeypatch):
        def broken(opt):
            raise KeyError("missing")

        monkeypatch.setitem(cli._COMMANDS, "zeta", broken)
        assert run_cli(capsys, "zeta", "--re", "2") == (1, "", "internal error: 'missing'\n")

    @pytest.mark.parametrize("argv, name", ZERO_SIZE)
    def test_zero_size_run_is_2(self, capsys, argv, name):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert f"error: {name} must be at least 1" in err
        assert out == ""
        assert run_cli(capsys, *argv, "--dry-run") == (code, out, err)

    @pytest.mark.parametrize("argv, message", BAD_PARAMETER)
    def test_bad_parameter_is_2(self, capsys, argv, message):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert f"error: {message}" in err
        assert "RuntimeWarning" not in err
        assert out == ""
        assert run_cli(capsys, *argv, "--dry-run") == (code, out, err)

    @pytest.mark.parametrize("make, reason", [
        (lambda path: None, "cannot read config file '{path}': No such file or directory"),
        (lambda path: path.mkdir(), "cannot read config file '{path}': Is a directory"),
        (lambda path: path.write_bytes(b"command = zeta\n# caf\xe9\n"),
         "cannot decode config file '{path}' as UTF-8: 'utf-8' codec can't decode byte 0xe9"),
    ], ids=["missing", "directory", "not-utf-8"])
    def test_unreadable_config_file_is_2(self, tmp_path, capsys, make, reason):
        path = tmp_path / "run.cfg"
        make(path)
        argv = ("zeta", "--re", "2", "--config", str(path))
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert err.startswith("error: " + reason.format(path=path))
        assert out == ""
        assert run_cli(capsys, *argv, "--dry-run") == (code, out, err)

    def test_every_subcommand_has_a_command_and_a_refusal_case(self):
        """A new subcommand needs a _COMMANDS entry, which serves both the
        run and the dry-run, and a case in the refusal lists above."""
        refused = {argv[0] for argv, _ in ZERO_SIZE + BAD_PARAMETER}
        assert set(_subcommands()) == set(cli._COMMANDS)
        assert set(_subcommands()) <= refused

    def test_seed_only_where_a_seed_is_drawn(self, capsys):
        # limit-theorem's random model is the one thing a seed reaches
        assert [name for name, p in _subcommands().items() if "--seed" in _options(p)] == [
            "limit-theorem"]
        for dry in ([], ["--dry-run"]):
            with pytest.raises(SystemExit) as exc:
                run([*HITS, "--seed", "1", *dry])
            assert exc.value.code == 64
            assert "unrecognized arguments: --seed 1" in capsys.readouterr().err

    def test_csv_format_only_where_a_csv_report_is(self):
        formats = {name: tuple(_options(p)["--format"].choices)
                   for name, p in _subcommands().items()}
        assert {name for name, f in formats.items() if f == ("json", "csv")} == {
            "hits", "beatty", "weyl", "joint-weyl"}
        assert set(formats.values()) == {("json", "csv"), ("json",)}

    @pytest.mark.parametrize("argv, option", [
        (["weyl", "--N", "100"], "--beta"),
        (["joint-weyl", "--m1", "2:1", "--N", "10"], "--alpha"),
    ])
    def test_weyl_sum_parameter_is_required(self, capsys, argv, option):
        for dry in ([], ["--dry-run"]):
            with pytest.raises(SystemExit) as exc:
                run([*argv, *dry])
            assert exc.value.code == 64
            assert f"the following arguments are required: {option}" in capsys.readouterr().err

    @pytest.mark.parametrize("c", ["nan", "inf", "0", "-1"])
    def test_flip_refuses_c_before_the_chi_scan(self, capsys, monkeypatch, c):
        def no_scan(*args):
            raise AssertionError("the chi scan ran before c was checked")

        monkeypatch.setattr(zc, "chi_lower_bound_check", no_scan)
        code, out, err = run_cli(capsys, "flip", "--sigma", "0.3", "--t-start", "50", "--h", "1",
                                 "--l", "2", "--r", "1", "--N", "10", "--c", c)
        assert code == 2
        assert f"error: c must be finite and positive, got {float(c)}" in err
        assert out == ""

    @pytest.mark.parametrize("option, value, message", [
        ("--m1", "2:x", "invalid entry '2:x': expected prime:weight with integers"),
        ("--m2", "3:1,x:2", "invalid entry 'x:2': expected prime:weight with integers"),
        ("--m1", "2:1,", "invalid entry '': expected prime:weight with integers"),
        ("--m1", "2:1,2:3", "invalid entry '2:3': prime 2 repeated"),
        ("--m2", "5,3:1,5:2", "invalid entry '5:2': prime 5 repeated"),
    ])
    def test_malformed_weights_are_usage_errors(self, tmp_path, capsys, option, value, message):
        """From a flag and from a config file alike, naming the option and the entry."""
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(f"command = joint-weyl\n{option[2:]} = {value}\n")
        argv = ["joint-weyl", "--alpha", "golden", "--N", "10"]
        for args in ([*argv, f"{option}={value}"], [*argv, "--config", str(cfg)]):
            for dry in ([], ["--dry-run"]):
                with pytest.raises(SystemExit) as exc:
                    run([*args, *dry])
                assert exc.value.code == 64
                captured = capsys.readouterr()
                assert captured.out == ""
                assert captured.err.endswith(f"error: argument {option}: {message}\n")

    def test_success_is_0(self, capsys):
        code, out, _ = run_cli(capsys, "zeta", "--re", "2")
        assert code == 0
        assert f"{math.pi ** 2 / 6:.8f}"[:8] in out


class TestCommands:
    def test_zeta_value(self, capsys):
        code, out, _ = run_cli(capsys, "zeta", "--re", "0.5", "--im", "14.134725")
        assert code == 0
        payload = json.loads(out.strip().splitlines()[-1])
        value = complex(payload["value"])
        assert abs(value) < 1e-5  # first zero

    def test_chi_modulus(self, capsys):
        code, out, _ = run_cli(capsys, "chi", "--re", "0.5", "--im", "30")
        payload = json.loads(out.strip().splitlines()[-1])
        assert code == 0
        assert abs(payload["abs"] - 1.0) < 1e-9

    def test_ztheta(self, capsys):
        code, out, _ = run_cli(capsys, "ztheta", "--t", "20")
        payload = json.loads(out.strip().splitlines()[-1])
        assert code == 0
        assert "theta" in payload and "Z" in payload

    def test_uniqueness_certificate(self, capsys):
        code, out, _ = run_cli(
            capsys, "uniqueness", "--delta1", "1", "--delta2", "2", "--n-max", "1"
        )
        payload = json.loads(out.strip().splitlines()[-1])
        assert code == 0
        cert = payload["certificate"]
        assert cert["mu"] == 2 and cert["witness_n"] == 1
        assert abs(cert["b"] - 6.887944321818825) < 1e-10

    def test_beatty_partition(self, capsys):
        code, out, _ = run_cli(capsys, "beatty", "--alpha", "golden", "--check", "5000")
        payload = json.loads(out.strip().splitlines()[-1])
        assert code == 0
        assert payload["is_partition"] is True
        assert payload["overlaps"] == 0 and payload["gaps"] == 0

    def test_weyl_linear(self, capsys):
        code, out, _ = run_cli(
            capsys, "weyl", "--beta", "1.4142135623730951", "--N", "4096",
        )
        payload = json.loads(out.strip().splitlines()[-1])
        assert code == 0
        assert payload["magnitude"] < 1e-3

    def test_literal_weyl_run_checks_each_floor_once(self, capsys, monkeypatch):
        calls, check = [], eq.check_floors

        def counting(alpha, m_top):
            calls.append(alpha)
            return check(alpha, m_top)

        monkeypatch.setattr(eq, "check_floors", counting)
        code, _, _ = run_cli(capsys, "joint-weyl", "--alpha", "1.3247179572447", "--m1", "2:1",
                             "--N", "100000")
        assert code == 0
        assert len(calls) == 2  # alpha's floors, then alpha''s

    def test_weyl_sums_looked_up_at_call_time(self, capsys, monkeypatch):
        # a wrapper set on the module attribute sees the command's call
        calls = []

        def spy(name):
            original = getattr(eq, name)

            def wrapper(*args):
                calls.append(name)
                return original(*args)
            return wrapper

        for name in ("weyl_sum", "joint_beatty_weyl"):
            monkeypatch.setattr(eq, name, spy(name))
        assert run_cli(capsys, "weyl", "--beta", "1.5", "--N", "100")[0] == 0
        assert run_cli(capsys, "joint-weyl", "--alpha", "golden", "--m1", "2:1",
                       "--N", "100")[0] == 0
        assert calls == ["weyl_sum", "joint_beatty_weyl"]

    def test_hits_scan(self, capsys):
        code, out, _ = run_cli(
            capsys, "hits", "--sigma", "0.75", "--im0", "10", "--h", "1", "--l", "1",
            "--a-re", "1", "--eps", "0.5", "--N", "500",
        )
        payload = json.loads(out.strip().splitlines()[-1])
        assert code == 0
        assert payload["hits"] >= 1
        assert 0.0 < payload["density"] <= 1.0

    def test_hits_scan_reaches_down_to_minus_t_max(self, tmp_path, capsys):
        # heights -29994 .. -29985 lie inside |Im s| <= t_max, though
        # |im0| + h N exceeds it
        argv = ["hits", "--sigma", "0.75", "--im0", "-29995", "--h", "1", "--l", "1",
                "--a-re", "1", "--eps", "0.6", "--N", "10"]
        path = tmp_path / "hits.csv"
        assert run_cli(capsys, *argv, "--output", str(path), "--format", "csv")[0] == 0
        assert run_cli(capsys, *argv, "--dry-run")[0] == 0
        dev = np.abs(zc.zeta_on_line(0.75, -29995.0, 1.0, 10) - 1.0).tolist()
        lines = [f"{n},{d:.17g}\n" for n, d in enumerate(dev, 1) if d < 0.6]
        assert lines
        assert path.read_text() == "".join(["n,max_dev\n", *lines])

    def test_meansquare_ignores_threads(self, tmp_path, capsys, monkeypatch):
        argv = ["meansquare", "--sigma", "0.8", "--m", "50", "--N", "900", "--shift-step", "1.5"]
        reports = []
        for threads in ("1", "2"):
            path = tmp_path / f"ms{threads}.json"
            assert run_cli(capsys, *argv, "--threads", threads, "--output", str(path))[0] == 0
            report = json.loads(path.read_text())
            report.pop("timestamp")
            report["config"].pop("output")
            reports.append(report)
        assert reports[0] == reports[1]
        seen = []
        line = zc.zeta_on_line

        def spy(sigma, t0, delta, count):  # takes no thread count
            seen.append(count)
            return line(sigma, t0, delta, count)

        monkeypatch.setattr(zc, "zeta_on_line", spy)
        assert run_cli(capsys, *argv, "--threads", "2")[0] == 0
        assert seen == [900]

    def test_chi_zero(self, capsys):
        # chi has a simple zero at s = 0
        assert run_cli(capsys, "chi", "--re", "0")[1:] == (
            '{"abs": 0.0, "value": "0+0j"}\n', "")
        code, out, _ = run_cli(capsys, "chi", "--re", "0", "--dry-run")
        assert code == 0 and json.loads(out)["estimated_evaluations"] == 0

    def test_bergman(self, capsys):
        code, out, _ = run_cli(
            capsys, "bergman", "--f", "s", "--z-re", "0.75", "--z-im", "0.5",
        )
        payload = json.loads(out.strip().splitlines()[-1])
        assert code == 0
        assert payload["holds"] is True


class TestDryRunAndReports:
    def test_dry_run_prints_config_only(self, capsys):
        code, out, _ = run_cli(
            capsys, "hits", "--sigma", "0.75", "--h", "1", "--l", "2",
            "--a-re", "1", "--eps", "0.5", "--N", "29000", "--dry-run",
        )
        payload = json.loads(out.strip())
        assert code == 0
        assert payload["dry_run"] is True
        assert payload["estimated_evaluations"] == 29001  # heights 1 .. N + l - 1
        assert payload["config"]["command"] == "hits"
        assert "estimated_euler_factors" not in payload

    def test_dry_run_counts_euler_factors(self, capsys, monkeypatch):
        # the lattice products count their sources, as the run spreads them;
        # only the random model still forms factors, m x trials
        spread = []
        transform = zc._type1

        def counting_type1(anchor, delta, logs, lo, count, scale=None):
            if scale is not None:  # an Euler product, not a zeta segment
                spread.append(logs.size)
            return transform(anchor, delta, logs, lo, count, scale)

        monkeypatch.setattr(zc, "_type1", counting_type1)
        for argv, evaluations, sources, factors in (
            (["meansquare", "--sigma", "0.9", "--m", "10000", "--N", "500", "--shift-step", "2"],
             500, 42_176, None),
            (["limit-theorem", "--m", "200", "--h", "1.5", "--N", "10000", "--trials", "3000"],
             0, 1788, 200 * 3000),
        ):
            code, out, _ = run_cli(capsys, *argv, "--dry-run")
            payload = json.loads(out.strip())
            assert code == 0
            assert payload["estimated_evaluations"] == evaluations
            assert payload["estimated_euler_sources"] == sources
            assert payload.get("estimated_euler_factors") == factors
            spread.clear()
            assert run_cli(capsys, *argv)[0] == 0
            assert spread == [sources]

    @pytest.mark.parametrize("argv", [
        ["hits", "--sigma", "0.6", "--im0", "100.3", "--h", "0.7", "--l", "2",
         "--a-re", "1", "--eps", "0.5", "--N", "3000"],
        ["joint-hits", "--alpha", "golden", "--t1", "40", "--s-re", "0.75",
         "--a1-re", "1", "--a2-re", "1", "--eps", "0.7", "--N", "700"],
        ["sis", "--alpha", "sqrt2", "--t1", "10", "--t2", "10", "--s-re", "0.75",
         "--a1-re", "1", "--a2-re", "1.2", "--eps", "0.8", "--N", "600"],
        ["meansquare", "--sigma", "0.8", "--m", "50", "--N", "900", "--shift-step", "1.5"],
    ])
    def test_dry_run_terms_match_the_run(self, capsys, monkeypatch, argv):
        code, out, _ = run_cli(capsys, *argv, "--dry-run")
        assert code == 0
        estimate = json.loads(out.strip())["estimated_terms"]
        work = _count_kernel_work(monkeypatch)
        assert run_cli(capsys, *argv, "--threads", "2")[0] == 0
        assert estimate == sum(terms for _, terms in work)

    @pytest.mark.parametrize("argv", [
        ["zeta", "--re", "0.5", "--im", "14"],
        ["chi", "--re", "0.25", "--im", "100"],
        ["ztheta", "--t", "20"],
        ["uniqueness", "--delta1", "1", "--delta2", "2", "--n-max", "3", "--m-max", "50"],
        ["beatty", "--alpha", "golden", "--check", "1000"],
        ["weyl", "--beta", "1.4142135623730951", "--N", "1000"],
        ["joint-weyl", "--alpha", "golden", "--m1", "2:1", "--N", "1000"],
        ["hits", "--sigma", "0.6", "--im0", "100.3", "--h", "0.7", "--l", "3",
         "--a-re", "1", "--eps", "0.5", "--N", "300"],
        ["joint-hits", "--alpha", "golden", "--t1", "40", "--s-re", "0.75",
         "--a1-re", "1", "--a2-re", "1", "--eps", "0.7", "--N", "300"],
        ["sis", "--alpha", "sqrt3", "--t1", "10", "--t2", "10", "--s-re", "0.75",
         "--a1-re", "1", "--a2-re", "1.2", "--eps", "0.8", "--N", "300"],
        ["meansquare", "--sigma", "0.8", "--m", "50", "--N", "300"],
        ["limit-theorem", "--m", "20", "--h", "1.5", "--N", "200", "--trials", "100"],
        ["bergman", "--f", "zeta", "--step", "0.1", "--z-re", "0.75", "--z-im", "0.5"],
        ["bergman", "--f", "s2", "--step", "0.1", "--z-re", "0.75", "--z-im", "0.5"],
        # an 80 x 200 grid: the product path
        ["bergman", "--f", "zeta", "--step", "0.005", "--z-re", "0.75", "--z-im", "0.5"],
    ])
    def test_dry_run_evaluations_match_the_run(self, capsys, monkeypatch, argv):
        code, out, _ = run_cli(capsys, *argv, "--dry-run")
        assert code == 0
        estimate = json.loads(out.strip())["estimated_evaluations"]
        work = _count_kernel_work(monkeypatch)
        assert run_cli(capsys, *argv)[0] == 0
        assert sum(points for points, _ in work) == estimate

    def test_dry_run_bounds_flip_and_sizes_bergman(self, capsys, monkeypatch):
        argv = ["flip", "--sigma", "0.3", "--t-start", "50", "--h", "1", "--l", "2",
                "--r", "1", "--N", "1500"]
        code, out, _ = run_cli(capsys, *argv, "--dry-run")
        payload = json.loads(out.strip())
        assert payload["estimated_evaluations"] == 1501  # the mirrored line, every height
        work = _count_kernel_work(monkeypatch)
        assert run_cli(capsys, *argv)[0] == 0
        points, terms = (sum(c) for c in zip(*work))
        assert points == payload["estimated_evaluations"]
        assert terms == payload["estimated_terms"]
        code, out, _ = run_cli(capsys, "bergman", "--f", "zeta", "--z-re", "0.75",
                               "--z-im", "0.5", "--dry-run")
        assert json.loads(out.strip())["estimated_evaluations"] == 40 * 100 + 1

    @pytest.mark.parametrize("argv", [
        [*HITS[:-1], "100000"],  # reaches t = 1e5
        *[[*HITS, flag, value] for flag, value in (
            ("--sigma", "0.3"), ("--h", "-1"), ("--h", "nan"), ("--l", "0"))],
        *[["flip", "--sigma", "0.3", "--t-start", "50", "--h", "1", "--l", "2", "--r", "1",
           *flags] for flags in (["--N", "0"], ["--N", "10", "--r", "-1"], ["--N", "10", "--c", "1e6"])],
        *[["joint-hits", "--alpha", "golden", "--s-re", "0.75", "--a2-re", "1", "--eps", "0.5",
           *flags] for flags in (["--a1-re", "0", "--N", "10"],
                                 ["--a1-re", "1", "--N", "10", "--t1", "inf"])],
        ["sis", "--alpha", "golden", "--s-re", "0.75", "--a1-re", "1", "--a2-re", "1",
         "--eps", "0.5", "--N", "100000"],
        *[["meansquare", "--sigma", sigma, "--m", m, "--N", n, "--shift-step", step]
          for sigma, m, n, step in (("0.75", "5", "10", "0.01"), ("0.75", "0", "10", "1"),
                                    ("0.4", "5", "10", "1"), ("0.75", "5", "100000", "1"))],
        *[["limit-theorem", "--m", m, "--h", h, "--N", n, "--trials", trials]
          for m, h, n, trials in (("5", "nan", "10", "10"), ("0", "1", "10", "10"),
                                  ("5", "1", "0", "10"), ("5", "1", "10", "0"))],
        ["weyl", "--beta", "1.5", "--freq", "0", "--N", "10"],
        *[["weyl", *flags] for flags in (
            ["--beta", "inf", "--N", "10"], ["--beta", "1.5", "--freq", "nan", "--N", "10"],
            ["--beta", "1.5", "--N", "0"])],
        *[["joint-weyl", *flags] for flags in (
            ["--alpha", "golden", "--N", "10"], ["--alpha", "1.0", "--m1", "2:1", "--N", "10"],
            ["--alpha", "golden", "--m1", "2:1", "--N", "0"])],
        *[["joint-weyl", "--alpha", "golden", "--m1", "2:1", "--N", "10", flag, value]
          for flag, value in (("--delta1", "nan"), ("--delta2", "inf"), ("--t1", "inf"),
                              ("--t2", "nan"))],
        *[["flip", "--sigma", sigma, "--t-start", t_start, "--h", "1", "--l", "1", "--r", "1",
           *flags, "--N", "10"] for sigma, t_start, flags in (
            ("0.3", "1", []), ("0.45", "100", ["--c", "10"]), ("0.3", "inf", []))],
    ])
    def test_dry_run_refuses_what_the_run_refuses(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == "" and err.startswith("error: ")
        assert run_cli(capsys, *argv, "--dry-run") == (code, "", err)

    @pytest.mark.parametrize("argv, point", [
        (["hits", "--sigma", "0.75", "--im0", "29990", "--h", "1", "--l", "1", "--a-re", "1",
          "--eps", "0.6"], "(0.75+30001j)"),
        (["flip", "--sigma", "0.3", "--t-start", "29990", "--h", "1", "--l", "1", "--r", "1"],
         "(0.7+30001j)"),
        (["meansquare", "--sigma", "0.75", "--m", "5", "--shift-step", "1"], "(0.75+30001j)"),
        *[([cmd, "--alpha", "golden", "--s-re", "0.75", "--a1-re", "1", "--a2-re", "1",
            "--eps", "0.7"], "(0.75+30001j)") for cmd in ("joint-hits", "sis")],
    ])
    @pytest.mark.parametrize("dry", [[], ["--dry-run"]])
    def test_line_leaving_the_strip_is_refused_before_it_is_built(self, capsys, argv, point, dry):
        # 10^7 heights or shifts would take 80 MB for each array built over them
        err = f"error: grid point {point} outside {zc._STRIP}\n"
        assert run_cli(capsys, *argv, "--N", "30001", *dry) == (2, "", err)  # loads the modules
        tracemalloc.start()
        try:
            refused = run_cli(capsys, *argv, "--N", "10000000", *dry)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert refused == (2, "", err)
        assert peak < 2**20

    @pytest.mark.parametrize("flags, counted", [
        (["--delta2", "1", "--m-max", "5000"], 15_000),  # no certificate: every m of every n
        (["--delta2", "1", "--m-max", "10000", "--coeffs", "pow2"], 42),  # 14 powers of two
        (["--delta2", "2", "--m-max", "1000"], 771),  # 3 x 256 in find_mu, 3 phi_n calls
    ])
    def test_uniqueness_dry_run_bounds_phi_evaluations(self, capsys, monkeypatch, flags, counted):
        argv = ["uniqueness", "--delta1", "1", "--n-max", "3", *flags]
        code, out, _ = run_cli(capsys, *argv, "--dry-run")
        assert code == 0
        payload = json.loads(out)
        assert payload["estimated_evaluations"] == 0  # no zeta value
        estimate = payload["estimated_phi_evaluations"]
        seen, phis = [], dirichlet._phis

        def spy(f1, f2, theta1, theta2, m):
            seen.append(m.size)
            return phis(f1, f2, theta1, theta2, m)

        monkeypatch.setattr(dirichlet, "_phis", spy)
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        assert sum(seen) == counted <= estimate
        if json.loads(out)["certificate"] is None:  # the scan ran to m_max
            assert counted == estimate

    def test_bergman_dry_run_builds_no_grid(self, capsys, monkeypatch):
        argv = ["bergman", "--f", "zeta", "--z-re", "0.75", "--z-im", "0.5", "--dry-run"]
        default = ep.Rectangle(0.55, 0.95, 0.05, 1.05).midpoint_grid(0.01).size + 1

        def no_grid(self, step):
            raise AssertionError("the dry-run built the grid")

        monkeypatch.setattr(ep.Rectangle, "midpoint_grid", no_grid)
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        assert json.loads(out.strip())["estimated_evaluations"] == default
        code, out, _ = run_cli(capsys, *argv, "--step", "1e-9")
        assert code == 0
        assert json.loads(out.strip())["estimated_evaluations"] == 4 * 10**8 * 10**9 + 1

    @pytest.mark.parametrize("flags, tol", [
        ([], dirichlet.DEFAULT_TOL), (["--tol", "1e-10"], 1e-10)])
    def test_uniqueness_report_records_the_tol_used(self, tmp_path, capsys, flags, tol):
        report = tmp_path / "u.json"
        for dry in ([], ["--dry-run"]):
            code, out, _ = run_cli(capsys, *UNIQUENESS, *flags, "--output", str(report), *dry)
            assert code == 0
        assert json.loads(report.read_text())["config"]["tol"] == tol
        assert json.loads(out)["config"]["tol"] == tol  # the dry-run's

    def test_json_report_is_deterministic_modulo_timestamp(self, tmp_path, capsys):
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        for out in (out1, out2):
            code, _, _ = run_cli(
                capsys, "zeta", "--re", "2", "--output", str(out),
            )
            assert code == 0
        a = json.loads(out1.read_text())
        b = json.loads(out2.read_text())
        for payload in (a, b):
            payload.pop("timestamp")
            payload["config"].pop("output")
        assert a == b

    def test_csv_report(self, tmp_path, capsys):
        out = tmp_path / "hits.csv"
        code, _, _ = run_cli(capsys, *HITS, "--output", str(out), "--format", "csv")
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "n,max_dev"
        assert len(lines) >= 2

    def test_parser_reused_across_runs(self, tmp_path, capsys):
        # one process, one parser: no format, output or error leaks into the
        # next run
        csv_path, json_path = tmp_path / "a.csv", tmp_path / "b.json"
        assert run_cli(capsys, *HITS, "--format", "csv", "--output", str(csv_path))[0] == 0
        assert csv_path.read_text().startswith("n,max_dev\n")
        assert run_cli(capsys, *HITS, "--output", str(json_path))[0] == 0
        assert json.loads(json_path.read_text())["config"]["format"] == "json"
        with pytest.raises(SystemExit) as exc:
            run(["hits", "--sigma", "0.75", "--N", "ten"])
        assert exc.value.code == 64
        capsys.readouterr()
        code, out, _ = run_cli(capsys, *HITS)
        assert code == 0
        assert json.loads(out.strip().splitlines()[-1])["N"] == 200

    def test_csv_flag_rejected_for_json_only_command(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(zc, "zeta", _no_zeta)
        out = tmp_path / "z.csv"
        with pytest.raises(SystemExit) as exc:
            run(["zeta", "--re", "2", "--format", "csv", "--output", str(out)])
        assert exc.value.code == 64
        captured = capsys.readouterr()
        assert "argument --format: invalid choice: 'csv'" in captured.err
        assert captured.out == "" and not out.exists()


class TestParserPerCommand:
    """run builds the subparser of the command that argv names, alone, and
    it speaks as the full parser does."""

    def test_run_builds_only_the_named_command(self, capsys):
        assert run_cli(capsys, "zeta", "--re", "2")[0] == 0
        assert list(_subcommands_of(cli._parser("zeta"))) == ["zeta"]
        assert list(_subcommands_of(cli._parser(None))) == list(_subcommands())

    @pytest.mark.parametrize("argv, code, last_line", [
        ([], 64, "error: the following arguments are required: command"),
        (["frobnicate"], 64, "error: argument command: invalid choice: 'frobnicate' (choose from"),
        (["--re", "2"], 64, "error: argument command: invalid choice: '2' (choose from"),
        (["--help"], 0, ""),
    ])
    def test_argv_naming_no_command_meets_the_full_parser(self, capsys, argv, code, last_line):
        outputs = []
        for parse in (build_parser().parse_args, run):
            with pytest.raises(SystemExit) as exc:
                parse(argv)
            outputs.append((exc.value.code, *capsys.readouterr()))
        assert outputs[0] == outputs[1]
        code_seen, _, err = outputs[0]
        assert code_seen == code
        assert (err.splitlines() or [""])[-1].startswith(last_line)

    @pytest.mark.parametrize("name", list(cli._COMMANDS))
    def test_one_command_parser_prints_what_the_full_one_prints(self, capsys, name):
        alone = cli._parser(name)
        assert alone.format_usage() == build_parser().format_usage()
        for argv in ([name], [name, "--help"], [name, "--no-such-option", "1"]):
            outputs = []
            for parser in (build_parser(), alone):
                with pytest.raises(SystemExit) as exc:
                    parser.parse_args(argv)
                outputs.append((exc.value.code, *capsys.readouterr()))
            assert outputs[0] == outputs[1]
            assert outputs[0][0] == (0 if "--help" in argv else 64)


class TestConfigFile:
    def test_file_drives_run(self, tmp_path, capsys):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("# a zeta evaluation\ncommand = zeta\nre = 2\n")
        for flag in ("--re", "--r"):  # however abbreviated
            code, out, _ = run_cli(capsys, "zeta", flag, "3", "--config", str(cfg))
            assert code == 0
            # explicit flag --re 3 wins over the file value 2
            payload = json.loads(out.strip().splitlines()[-1])
            assert abs(complex(payload["value"]) - 1.2020569) < 1e-6

    def test_file_value_used_when_flag_defaulted(self, tmp_path, capsys):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("command = hits\nim0 = 0\n")
        argv = [*HITS[:3], *HITS[5:], "--dry-run"]  # no --im0
        code, out, _ = run_cli(capsys, *argv, "--config", str(cfg))
        assert code == 0
        # parsed and recorded as the flag's value
        assert run_cli(capsys, *argv, "--im0", "0") == (0, out, "")
        assert '"im0": 0.0' in out

    def test_file_format_used_when_flag_absent(self, tmp_path, capsys):
        out = tmp_path / "x.csv"
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(f"command = hits\nformat = csv\noutput = {out}\n")
        code, _, _ = run_cli(capsys, *HITS, "--config", str(cfg))
        assert code == 0
        assert out.read_text().splitlines()[0] == "n,max_dev"
        # an explicit --format=json still wins over the file
        code, _, _ = run_cli(capsys, *HITS, "--config", str(cfg), "--format=json")
        assert code == 0
        assert json.loads(out.read_text())["config"]["format"] == "json"

    def test_file_csv_rejected_for_json_only_command(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(zc, "zeta", _no_zeta)
        out = tmp_path / "z.csv"
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(f"command = zeta\nre = 2\nformat = csv\noutput = {out}\n")
        with pytest.raises(SystemExit) as exc:
            run(["zeta", "--re", "2", "--config", str(cfg)])
        assert exc.value.code == 64  # a usage error, as for the flag
        captured = capsys.readouterr()
        assert "argument --format: invalid choice: 'csv'" in captured.err
        assert captured.out == "" and not out.exists()

    def test_command_mismatch_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("command = chi\nre = 2\n")
        code, _, err = run_cli(capsys, "zeta", "--re", "2", "--config", str(cfg))
        assert code == 2
        assert "does not match" in err

    @pytest.mark.parametrize("argv, key, option, value", [
        (UNIQUENESS, "coeffs", "--coeffs", "pow3"),
        (UNIQUENESS, "n_max", "--n-max", "2.5"),
        (["zeta", "--re", "2"], "format", "--format", "xml"),
        (["limit-theorem", "--m", "5", "--h", "1", "--N", "10", "--trials", "10"], "seed", "--seed",
         "1.5"),
    ])
    def test_bad_file_value_is_the_flags_usage_error(self, tmp_path, capsys, argv, key,
                                                     option, value):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(f"command = {argv[0]}\n{key} = {value}\n")
        errors = []
        for args in ([*argv, "--config", str(cfg)], [*argv, option, value]):
            with pytest.raises(SystemExit) as exc:
                run(args)
            assert exc.value.code == 64
            captured = capsys.readouterr()
            assert captured.out == "" and f"argument {option}: invalid" in captured.err
            errors.append(captured.err)
        assert errors[0] == errors[1]


class TestConfigParsing:
    def test_round_trip(self):
        again = cf.parse_config_text("command = hits\nseed = 7\nformat = csv\nN = 100\n"
                                     "sigma = 0.75\n")
        # values stay text; seed and format are options like any other
        assert again == cf.ExperimentConfig(
            command="hits", params={"seed": "7", "format": "csv", "N": "100", "sigma": "0.75"}
        )

    def test_comments_and_blank_lines(self):
        cfg = cf.parse_config_text("# hi\n\ncommand = zeta  # trailing\nre = 2\n")
        assert cfg.command == "zeta"
        assert cfg.params == {"re": "2"}

    def test_parse_error_carries_line(self):
        with pytest.raises(ParseError) as exc:
            cf.parse_config_text("command = zeta\nthis is wrong\n")
        assert exc.value.line == 2

    def test_duplicate_key(self):
        with pytest.raises(ParseError):
            cf.parse_config_text("command = zeta\nre = 1\nre = 2\n")

    def test_missing_command(self):
        with pytest.raises(ParseError):
            cf.parse_config_text("re = 2\n")

    def test_value_types(self):
        cfg = cf.parse_config_text(
            "command = x\na = 3\nb = 2.5\nc = true\nd = hello\ne =\nf = x=y\n"
        )
        # no value is typed here: the option's own parser types it
        assert cfg.params == {"a": "3", "b": "2.5", "c": "true", "d": "hello", "e": "",
                              "f": "x=y"}

    @given(
        st.dictionaries(
            st.text(alphabet="abcdefgh_", min_size=1, max_size=8),
            st.one_of(st.integers(-1000, 1000), st.floats(-100, 100, allow_nan=False)),
            max_size=6,
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_round_trip_property(self, params):
        # each value comes back as the text written, which its type reads back equal
        text = "command = zeta\n" + "".join(f"{k} = {v!r}\n" for k, v in params.items())
        parsed = cf.parse_config_text(text).params
        assert parsed == {k: repr(v) for k, v in params.items()}
        assert {k: type(v)(parsed[k]) for k, v in params.items()} == params


def test_unknown_config_key_warns(tmp_path, capsys, caplog):
    # and so do `dry_run` and `config`, which no config key sets, and `seed`,
    # which only limit-theorem reads; none is recorded
    cfg, report = tmp_path / "exp.cfg", tmp_path / "r.json"
    cfg.write_text(f"command = zeta\nre = 2\nbogus_key = 1\ndry_run = true\nconfig = {cfg}\n"
                   f"seed = 1\nthreads = 2\noutput = {report}\n")
    with caplog.at_level(logging.WARNING, logger="zetalab"):
        code, out, _ = run_cli(capsys, "zeta", "--re", "2", "--config", str(cfg))
    assert code == 0 and "dry_run" not in out  # the run, not a dry-run
    warned = " ".join(rec.getMessage() for rec in caplog.records)
    assert all(repr(key) in warned for key in ("bogus_key", "dry_run", "config", "seed"))
    assert "threads" not in warned  # accepted, as the flag is
    assert json.loads(report.read_text())["config"] == {
        "command": "zeta", "format": "json", "im": 0.0, "output": str(report), "re": 2.0}
