"""zetalab: numerical experiments on the value-distribution of the
Riemann zeta-function over discrete vertical sets."""

from .zeta_core import (
    chi,
    chi_lower_bound_check,
    functional_equation_residual,
    hardy_z,
    log_gamma,
    theta,
    zeta,
    zeta_grid,
    zeta_on_line,
)
from .dirichlet import (
    BoundedCoeffFn,
    Permutation,
    Progression,
    UniquenessCertificate,
    dirichlet_eval,
    find_mu,
    phi_n,
    uniqueness_bound,
    verify_distinct_beyond_b,
)
from .beatty import (
    BeattyPair,
    exclusion_scan,
    rayleigh_partition_check,
    sigma_alpha,
)
from .equidist import (
    FrequencyVector,
    WeylReport,
    joint_beatty_weyl,
    weyl_sum,
)
from .euler_product import (
    Rectangle,
    TruncationLevel,
    bergman_sup_bound,
    empirical_limit_theorem,
    mean_square_discrete,
)
from .shift_search import (
    HitDensityReport,
    ShiftHit,
    TargetDisk,
    VerticalGrid,
    corollary_sis_density,
    joint_beatty_hits,
    left_half_flip,
    scan_disk_hits,
)

__version__ = "0.1.0"
