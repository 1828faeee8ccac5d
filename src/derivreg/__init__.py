"""derivreg: nonparametric regression with derivative data.

Reconstructs a k-variate regression function from noisy observations of the
function and of its mixed first-order partial derivatives.  Derivative data
lets nonlocal (integral) averages replace local smoothing coordinate by
coordinate, which lowers the effective dimension of the estimation problem;
the package provides the exact integral calculus, the kernel estimators, and
a Monte Carlo benchmark harness.
"""

__version__ = "0.1.0"

from .core import (
    AffineMap,
    DataSet,
    DerivIndex,
    DerivRegError,
    ParseError,
    RngStream,
    TestFunction,
    ToleranceError,
    ValidationError,
    poly_function,
    product_function,
    rescale_to_unit,
    split_stream,
    write_csv,
)
from .kernels import (
    BandwidthPlan,
    KernelSpec,
    ProductKernel,
    check_orders,
    make_edge_kernel,
    make_interior_kernel,
    product_kernel,
)
from .functionals import (
    Quadrature,
    Term,
    TermPlan,
    Weight,
    build_term_plan,
    decomposition_residual,
    evaluate_plan,
    identity_checks,
    integrate_out,
    integrate_to,
    kernel_moment,
    nonparametric_dimension,
    partial_decomposition_residual,
    plan_residual,
    recon_weight,
    reconstruction_integral,
    weighted_integral,
)
from .density import DensityEstimator, loo_at_rows, loo_density
from .estimators import (
    EstimationPlan,
    FitResult,
    fit,
    limit_covariance,
    make_grid,
    nadaraya_watson_grid,
    nonlocal_estimate,
    smoothed_nonlocal_estimate,
)
from .simulation import (
    CobbDouglasConfig,
    McResult,
    RateResult,
    SimSample,
    BenchmarkRules,
    convergence_rate_experiment,
    derivative_ac_curve,
    equation_r2,
    generate,
    relative_mse_table,
)
