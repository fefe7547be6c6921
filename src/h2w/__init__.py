"""Two-weight Hilbert transform toolkit.

Exact atomic measures on a dyadic lattice, shifted dyadic grids, weighted
Haar analysis, truncated Hilbert kernels, Poisson integrals, stopping-time
coronas, and the constant estimates tying them together, all at desk scale.
"""

__version__ = "0.1.0"

from .errors import (
    AdaptednessViolation,
    AtomCollision,
    CommonPointMass,
    EndpointCollision,
    H2WError,
    InexactPosition,
    NecessityViolation,
    PairTooLarge,
    ParseError,
    PreconditionViolation,
    ZeroMass,
)
from .measure import (
    AtomicMeasure,
    DyadicRational,
    Interval,
    dilate,
    dyadic,
    has_common_point_mass,
    random_ensemble,
    read_pair_file,
)
from .grid import DyadicGrid, GridInterval, auto_grid, build_grid, f_parent, is_good
from .haar import (
    HaarCoefficients,
    WeightedFunction,
    absolute_haar_multiplier,
    expand,
    expectation,
    good_projection,
    haar_function,
    martingale_difference,
    reconstruct,
)
from .hilbert import (
    TruncationSpec,
    TruncationTable,
    hilbert_pairing,
    kernel_difference_factor,
    monotonicity_mono1,
    monotonicity_p_less_h,
    single_scale_average,
    smooth_kernel,
    transform,
    truncation_candidates,
    truncation_compare,
    weak_boundedness,
)
from .poisson import (
    HalfPlaneMeasure,
    dual_poisson,
    mu_measure,
    poisson_extension,
    poisson_local_comparison,
    poisson_stationary,
    poisson_testing,
)
from .constants import (
    ConstantsReport,
    a2_constant,
    compute_report,
    energy,
    energy_constant,
    functional_energy_ratio,
    norm_constant,
    pair_constants,
    testing_constant,
)
from .corona import (
    StoppingData,
    UniformitySpec,
    b_above,
    build_stopping_data,
    calibrate_c0,
    carleson_check,
    corona_pieces,
    corona_split,
    energy_stopping_intervals,
    quasi_norm,
    reduction_residual,
    uniformity_check,
)
