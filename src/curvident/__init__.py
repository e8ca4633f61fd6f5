"""curvident: exact tensor algebra for algebraic curvature tensors.

Everything is computed over the field {a + b*sqrt(3) : a, b rational}
with arbitrary-precision integers, so identity residuals are exact zeros,
never small floats.
"""

from .scalar import Scalar, ScalarParseError
from .tensor import (
    ContractionSpec,
    ContractionSpecError,
    ShapeError,
    Tensor,
    contract,
    ein,
    is_zero,
    lincomb,
    tensor_product,
    tensors_equal,
)
from .delta import (
    DeltaBinding,
    EngineInvariantError,
    generalized_delta_contract,
    reference_delta_contract,
)
from .curvature import (
    CurvatureTensor,
    CurvatureValidationError,
    InvariantReport,
    TSADecomposition,
    TwoSteinReport,
    invariants,
    jacobi_square_trace,
    triple_products,
    tsa,
    two_stein_check,
    validate_curvature,
    weyl,
)
from .models import (
    ModelSpec,
    ModelSpecError,
    SplitMix64,
    build,
    constant_curvature,
    curvature_from_components,
    einsteinize,
    example_5d,
    example_6d,
    explicit_spec,
    flat,
    kulkarni_nomizu_square,
    load_model,
    nikolayevsky,
    product,
    random_curvature,
    save_model,
    sl3_so3,
)
from .identities import (
    IdentityArgumentError,
    ResidualReport,
    einstein5_residual,
    einstein5_trace_residual,
    einstein6_blocks,
    einstein6_residual,
    einstein6_trace_residual,
    einstein6_trace_residual_alt,
    gauss_bonnet_integrand_6,
    max_r,
    patterson_residual,
    super5_blocks,
    super5_residual,
    super5_trace_residual,
    super6_residual,
    super6_trace_residual,
    trace_subidentities_6,
    transvect_rank4,
    transvect_rank6,
    weyl_expansion_residual,
    weyl_identity_blocks,
    weyl_patterson_residual,
)
from .report import (
    IDENTITY_IDS,
    RunReport,
    applicable_identities,
    evaluate_model,
    run_identity,
)

__version__ = "0.1.0"
