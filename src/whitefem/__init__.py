"""whitefem: finite element and spectral solvers for -Δu + λu = white noise.

Builds interval and rectangle meshes, assembles P1 systems for Dirichlet,
Neumann and Robin boundary conditions, samples solution paths driven by
Gaussian white-noise loads with reproducible counter-based streams, and
cross-checks everything against exact spectral and Green's-function oracles.
"""

from .mesh import Mesh, build_interval_mesh, build_rectangle_mesh, refine_uniform, read_mesh, write_mesh
from .fem import (
    BoundaryCondition,
    FemFunction,
    assemble_boundary_mass,
    assemble_mass,
    assemble_stiffness,
    dirichlet,
    neumann,
    robin,
)
from .spectral import (
    EigenBasis,
    Interval,
    Rectangle,
    TruncatedValue,
    covariance_function,
    eigenpairs,
    greens_function_1d,
)
from .noise import GaussianStream, LoadSample, LoadSampler
from .sampling import (
    DiscreteSolutionOperator,
    MomentReport,
    exact_covariances,
    exact_discrete_covariance,
    monte_carlo_moments,
    sample_path_with_load,
)
from .boundary import (
    BoundaryFunction,
    CameronMartinSystem,
    ScaleSpaceBasis,
    robin_residual,
    scale_space_basis,
    scale_space_norm,
    trace,
    weak_conormal_derivative,
)
from .convergence import (
    ErrorReport,
    HolderFit,
    LevelError,
    deterministic_fem_error,
    fit_rate,
    holder_modulus,
    l2_realization_diagnostic,
    spectral_series,
    truncation_error_closed_form,
)

__version__ = "0.2.0"
