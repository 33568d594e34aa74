"""zetalab: numerical experiments on the value-distribution of the
Riemann zeta-function over discrete vertical sets.

`import zetalab` imports no submodule.  Each name below, and each
submodule by name, is imported on first use (PEP 562), so that a
`zetalab` process loads only the modules its command runs: `zetalab zeta`
loads cli, config, errors and zeta_core, and no other."""

import sys

_EXPORTS = {
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
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = (*_EXPORTS, "cli", "config", "errors", "primes")

__all__ = list(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _SUBMODULES:
        __import__(f"{__name__}.{name}")  # not importlib.import_module, which -X importtime omits
        return sys.modules[f"{__name__}.{name}"]
    if name in _MODULE_OF:
        return getattr(__getattr__(_MODULE_OF[name]), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_SUBMODULES})
