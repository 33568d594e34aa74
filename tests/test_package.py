"""The package namespace: `import zetalab` loads each submodule on first
use, so a one-off command loads only the modules it runs, and every name
the package exports still resolves to its module's object."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import zetalab

SRC = Path(zetalab.__file__).resolve().parents[1]

SUBMODULES = ("beatty", "cli", "config", "dirichlet", "equidist", "errors", "euler_product",
              "primes", "shift_search", "zeta_core")

# module -> the names zetalab exported when it imported every module eagerly
EXPORTED = {
    "zeta_core": ("chi", "chi_lower_bound_check", "functional_equation_residual", "hardy_z",
                  "log_gamma", "theta", "zeta", "zeta_grid", "zeta_on_line"),
    "dirichlet": ("BoundedCoeffFn", "Permutation", "Progression", "UniquenessCertificate",
                  "dirichlet_eval", "find_mu", "phi_n", "uniqueness_bound",
                  "verify_distinct_beyond_b"),
    "beatty": ("BeattyPair", "exclusion_scan", "rayleigh_partition_check", "sigma_alpha"),
    "equidist": ("FrequencyVector", "WeylReport", "joint_beatty_weyl", "weyl_sum"),
    "euler_product": ("Rectangle", "TruncationLevel", "bergman_sup_bound",
                      "empirical_limit_theorem", "mean_square_discrete"),
    "shift_search": ("HitDensityReport", "TargetDisk", "VerticalGrid", "corollary_sis_density",
                     "joint_beatty_hits", "left_half_flip", "scan_disk_hits"),
}


@pytest.mark.parametrize("argv, own, fft", [
    (["zeta", "--re", "2"], [], False),
    (["meansquare", "--sigma", "0.75", "--m", "200", "--N", "2000"],
     ["euler_product", "primes"], True),
], ids=["zeta", "meansquare"])
def test_command_loads_only_its_modules(argv, own, fft):
    # the set-up a one-off command pays: `zetalab zeta` loads no other
    # zetalab module, and no numpy.fft, which only the NUFFT transforms use;
    # `zetalab meansquare` adds its Euler products and their primes alone
    code = (f"import sys\nfrom zetalab import cli\ncli.run({argv!r})\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'zetalab'))\n"
            "print('numpy.fft' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": str(SRC)},
                          capture_output=True, text=True, timeout=120, check=True)
    *_, modules, loaded_fft = proc.stdout.splitlines()
    expected = ["cli", "config", "errors", *own, "zeta_core"]
    assert modules == str(sorted(["zetalab", *(f"zetalab.{m}" for m in expected)]))
    assert loaded_fft == str(fft)


@pytest.mark.parametrize("module, name", [(m, n) for m, names in EXPORTED.items() for n in names])
def test_exported_name_is_its_modules_object(module, name):
    assert getattr(zetalab, name) is getattr(importlib.import_module(f"zetalab.{module}"), name)


def test_all_lists_exactly_the_exported_names():
    assert sorted(zetalab.__all__) == sorted(n for names in EXPORTED.values() for n in names)


@pytest.mark.parametrize("module", SUBMODULES)
def test_submodule_by_name(module):
    assert getattr(zetalab, module) is importlib.import_module(f"zetalab.{module}")
    assert module in dir(zetalab)


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="module 'zetalab' has no attribute 'no_such_name'"):
        zetalab.no_such_name  # noqa: B018
    assert not hasattr(zetalab, "DEFAULT_TOL")  # a module's name, not exported
