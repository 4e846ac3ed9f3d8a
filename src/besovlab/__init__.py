"""Numerical laboratory for composition operators on 1-D Besov and Sobolev spaces."""

from .grid import (
    DEFAULT_COUNT,
    DEFAULT_WINDOW,
    Extension,
    GridFunction,
    SpaceParams,
    catalog_family,
    grid_derivative,
    linf_on_interval,
    lp_norm,
    sample,
)
from .norms import (
    DyadicHGrid,
    besov_norm_diff,
    besov_seminorm_diff,
    embedding_lhs,
    littlewood_paley_norm,
    sobolev_norm_diff,
    sobolev_norm_fourier,
    sobolev_seminorm_diff,
)
from .maps import (
    IntervalSet,
    LineMap,
    M_functional,
    U_functional,
    UnboundedPreimageError,
    compose,
    derivative,
    lipschitz_constant,
    max_preimage_count,
    named_map,
    preimage_intervals,
)
from .splitting import IntervalFamily, Partition, intersection_degree, split_partition
from .gadgets import eta_eps, linear_cutoff, unit_bump, zigzag_g
from .multipliers import (
    make_psi,
    msq_norm_lower_detailed,
    multiplier_norm_lower_detailed,
    unif_profile,
)
from .theorems import CheckReport, RangeGateError, classify, opnorm_lower_detailed

__version__ = "0.1.0"

# the backend flag read by benchmark tooling; the kernels have one numpy implementation
USING_NUMBA = False
