"""spincat: phase-space numerics for spin-j cat states.

Constructs superpositions of two SU(2) spin coherent states as two-mode
bosonic states on a truncated Fock space, evaluates their Wigner functions
(closed forms and brute-force kernel traces), their Wigner-Yanase skew
information against the displaced parity kernel, and their evolution under a
Gaussian random-displacement noise channel - tracking the symmetry/asymmetry
budget I + W^2 <= 1 (equality for pure states) throughout.
"""

__version__ = "0.1.0"

from .channel import (
    ChannelParams,
    apply_channel_density,
    channel_wigner_convolution,
    channel_wigner_quadrature,
    gaussian_measure_nodes,
)
from .fockspace import (
    DensityMatrix,
    FockCutoff,
    TruncationWarning,
    TwoModeOperator,
    adequate_n_max,
    displacement_matrix,
    hermitian_sqrt,
    parity_matrix,
    single_mode_kernel,
    smoothed_kernel_element,
)
from .grids import GridSpec, SweepResult
from .skewinfo import (
    SkewEvaluator,
    SymmetryRecord,
    pure_point_values,
    symmetry_sweep,
)
from .states import (
    CatParams,
    StateVector,
    cat_norm_general,
    cat_norm_half,
    cat_state,
    density_from_vector,
    dicke_vector,
    spin_coherent_vector,
)
from .sweep import (
    WignerConvention,
    evaluate_grid,
    preset_names,
    read_csv,
    run_preset,
    serialize_csv,
    serialize_json,
)
from .wigner import (
    GaussianFormReport,
    PhasePoint,
    reconcile_gaussian_form,
    wigner_closed_general,
    wigner_closed_half,
    wigner_gaussian_general,
    wigner_gaussian_half,
    wigner_kernel_trace,
)

__all__ = [
    "__version__",
    "ChannelParams", "apply_channel_density", "channel_wigner_convolution",
    "channel_wigner_quadrature", "gaussian_measure_nodes",
    "DensityMatrix", "FockCutoff", "TruncationWarning", "TwoModeOperator",
    "adequate_n_max", "displacement_matrix", "hermitian_sqrt", "parity_matrix",
    "single_mode_kernel", "smoothed_kernel_element",
    "GridSpec", "SweepResult",
    "SkewEvaluator", "SymmetryRecord", "pure_point_values", "symmetry_sweep",
    "CatParams", "StateVector", "cat_norm_general", "cat_norm_half",
    "cat_state", "density_from_vector", "dicke_vector", "spin_coherent_vector",
    "evaluate_grid", "preset_names", "read_csv", "run_preset",
    "serialize_csv", "serialize_json",
    "GaussianFormReport", "PhasePoint", "WignerConvention",
    "reconcile_gaussian_form", "wigner_closed_general", "wigner_closed_half",
    "wigner_gaussian_general", "wigner_gaussian_half",
    "wigner_kernel_trace",
]
