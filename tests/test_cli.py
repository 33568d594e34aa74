import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zetalab import config as cf
from zetalab import euler_product as ep
from zetalab import zeta_core as zc
from zetalab.cli import build_parser, run
from zetalab.errors import ParseError


HITS = ["hits", "--sigma", "0.75", "--im0", "10", "--h", "1", "--l", "1",
        "--a-re", "1", "--eps", "0.5", "--N", "200"]


def run_cli(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _count_kernel_work(monkeypatch) -> list[tuple[int, int]]:
    """Patch zeta_core so that each kernel call appends (zeta values
    computed, terms summed): a recurrence block or a product grid sums
    points times its term count, a NUFFT segment spreads one source per
    term, a scalar call is one value."""
    work = []
    recurrence, product, nufft, scalar = zc._partial_sums, zc._product_grid, zc._nufft_segment, zc.zeta

    def counting_recurrence(s, logs):
        work.append((s.size, s.size * logs.size))
        return recurrence(s, logs)

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

    monkeypatch.setattr(zc, "_partial_sums", counting_recurrence)
    monkeypatch.setattr(zc, "_product_grid", counting_product)
    monkeypatch.setattr(zc, "_nufft_segment", counting_nufft)
    monkeypatch.setattr(zc, "zeta", counting_scalar)
    return work


def _no_zeta(s):
    raise AssertionError("evaluated before the report format was checked")


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

    @pytest.mark.parametrize("argv, name", [
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
    ])
    def test_zero_size_run_is_2(self, capsys, argv, name):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert f"error: {name} must be at least 1" in err
        assert out == ""

    @pytest.mark.parametrize("argv, message", [
        *[(["bergman", "--f", "s", "--z-re", "0.75", "--z-im", "0.5", "--step", step],
           "step must be finite and positive") for step in ("0", "-1", "inf", "nan")],
        (["weyl", "--N", "100"], "weyl --mode linear requires --beta"),
        *[(argv, "alpha must be finite and exceed 1") for argv in (
            ["beatty", "--alpha", "1", "--check", "10"],
            ["weyl", "--mode", "beatty", "--alpha", "1.0", "--m1", "2:1", "--N", "10"],
            *[[cmd, "--alpha", "1.0", "--s-re", "0.75", "--a1-re", "1", "--a2-re", "1",
               "--eps", "0.5", "--N", "10"] for cmd in ("sis", "joint-hits")],
        )],
        *[(["weyl", "--mode", "beatty", "--alpha", "golden", "--m1", "2:1", "--N", "10",
            flag, value], message) for flag, value, message in (
            ("--delta1", "nan", "delta1 must be finite and positive"),
            ("--delta2", "inf", "delta2 must be finite and positive"),
            ("--t1", "inf", "t1 must be finite"),
            ("--t2", "nan", "t2 must be finite"),
        )],
        (["weyl", "--mode", "linear", "--beta", "1.5", "--freq", "nan", "--N", "10"],
         "freq must be finite and nonzero"),
        (["weyl", "--mode", "linear", "--beta", "inf", "--N", "10"], "beta must be finite"),
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
         "shift sequence must be finite, got x_1 = nan"),
        (["weyl", "--mode", "beatty", "--m1", "2:1", "--N", "10"],
         "weyl --mode beatty requires --alpha"),
        *[(["ztheta", "--t", t], f"theta requires finite t >= 2, got {t}")
          for t in ("nan", "inf")],
        (["uniqueness", "--delta1", "inf", "--delta2", "1", "--n-max", "1", "--m-max", "10"],
         "delta must be finite and positive, got inf"),
        (["uniqueness", "--t1", "nan", "--delta1", "1", "--delta2", "2", "--n-max", "2",
          "--m-max", "10"], "t must be finite, got nan"),
        *[(["uniqueness", "--delta1", "1", "--delta2", "2", "--n-max", "1", "--m-max", "100",
            "--swap", swap], f"swap expects n1,n2, got '{swap}'") for swap in ("1", "1,2,3", "1,x")],
    ])
    def test_bad_parameter_is_2(self, capsys, argv, message):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert f"error: {message}" in err
        assert "RuntimeWarning" not in err
        assert out == ""

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
            capsys, "weyl", "--mode", "linear", "--beta", "1.4142135623730951",
            "--N", "4096",
        )
        payload = json.loads(out.strip().splitlines()[-1])
        assert code == 0
        assert payload["magnitude"] < 1e-3

    def test_hits_scan(self, capsys):
        code, out, _ = run_cli(
            capsys, "hits", "--sigma", "0.75", "--im0", "10", "--h", "1", "--l", "1",
            "--a-re", "1", "--eps", "0.5", "--N", "500",
        )
        payload = json.loads(out.strip().splitlines()[-1])
        assert code == 0
        assert payload["hits"] >= 1
        assert 0.0 < payload["density"] <= 1.0

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

        def spy(sigma, t0, delta, m):  # takes no thread count
            seen.append(m.size)
            return line(sigma, t0, delta, m)

        monkeypatch.setattr(zc, "zeta_on_line", spy)
        assert run_cli(capsys, *argv, "--threads", "2")[0] == 0
        assert seen == [900]

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

    def test_dry_run_counts_euler_factors(self, capsys):
        code, out, _ = run_cli(capsys, "meansquare", "--sigma", "0.9", "--m", "10000",
                               "--N", "500", "--shift-step", "2", "--dry-run")
        payload = json.loads(out.strip())
        assert code == 0
        assert payload["estimated_evaluations"] == 500
        assert payload["estimated_euler_factors"] == 500 * 10_000
        code, out, _ = run_cli(capsys, "limit-theorem", "--m", "200", "--h", "1.5",
                               "--N", "10000", "--trials", "3000", "--dry-run")
        payload = json.loads(out.strip())
        assert code == 0
        assert payload["estimated_evaluations"] == 0  # products only, no zeta
        assert payload["estimated_euler_factors"] == 200 * (10_000 + 3000)

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
        ["weyl", "--mode", "beatty", "--alpha", "golden", "--m1", "2:1", "--N", "1000"],
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
        assert payload["estimated_evaluations"] == 2 * 1501  # both lines, every height
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
    ])
    def test_dry_run_refuses_what_the_run_refuses(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == "" and err.startswith("error: ")
        assert run_cli(capsys, *argv, "--dry-run") == (code, "", err)

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
        assert "zeta has no CSV report" in captured.err
        assert captured.out == "" and not out.exists()


class TestConfigFile:
    def test_file_drives_run(self, tmp_path, capsys):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("# a zeta evaluation\ncommand = zeta\nre = 2\n")
        code, out, _ = run_cli(capsys, "zeta", "--re", "3", "--config", str(cfg))
        assert code == 0
        # explicit flag --re 3 wins over the file value 2
        payload = json.loads(out.strip().splitlines()[-1])
        assert abs(complex(payload["value"]) - 1.2020569) < 1e-6

    def test_file_value_used_when_flag_defaulted(self, tmp_path, capsys):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("command = zeta\nre = 2\nim = 0\n")
        code, out, _ = run_cli(capsys, "zeta", "--re", "2", "--config", str(cfg))
        assert code == 0

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
        code, stdout, err = run_cli(capsys, "zeta", "--re", "2", "--config", str(cfg))
        assert code == 2
        assert "zeta has no CSV report" in err
        assert stdout == "" and not out.exists()

    def test_command_mismatch_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("command = chi\nre = 2\n")
        code, _, err = run_cli(capsys, "zeta", "--re", "2", "--config", str(cfg))
        assert code == 2
        assert "does not match" in err


class TestConfigParsing:
    def test_round_trip(self):
        again = cf.parse_config_text("command = hits\nseed = 7\nformat = csv\nN = 100\n"
                                     "sigma = 0.75\n")
        assert again == cf.ExperimentConfig(
            command="hits", params={"sigma": 0.75, "N": 100}, seed=7, format="csv"
        )

    def test_comments_and_blank_lines(self):
        cfg = cf.parse_config_text("# hi\n\ncommand = zeta  # trailing\nre = 2\n")
        assert cfg.command == "zeta"
        assert cfg.params == {"re": 2}

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
            "command = x\na = 3\nb = 2.5\nc = true\nd = hello\n"
        )
        assert cfg.params == {"a": 3, "b": 2.5, "c": True, "d": "hello"}

    @given(
        st.dictionaries(
            st.text(alphabet="abcdefgh_", min_size=1, max_size=8),
            st.one_of(st.integers(-1000, 1000), st.floats(-100, 100, allow_nan=False)),
            max_size=6,
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_round_trip_property(self, params):
        # repr writes ints and floats so that they parse back equal
        text = "command = zeta\n" + "".join(f"{k} = {v!r}\n" for k, v in params.items())
        assert cf.parse_config_text(text).params == params


def test_unknown_config_key_warns(tmp_path, capsys, caplog):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("command = zeta\nre = 2\nbogus_key = 1\n")
    import logging

    with caplog.at_level(logging.WARNING, logger="zetalab"):
        code = run(["zeta", "--re", "2", "--config", str(cfg)])
    capsys.readouterr()
    assert code == 0
    assert any("bogus_key" in rec.getMessage() for rec in caplog.records)
