"""Anisotropic geometry toolkit.

Norms and their polars, Wulff shapes, anisotropic distance transforms on
voxel grids, discrete anisotropic curvature on meshes, and a verification
harness for the exact volume identities and erosion/bubbling laws they
satisfy.
"""

from .errors import (
    AnisoError,
    ConfigError,
    ConvergenceError,
    GeometryError,
    InsufficientDataError,
    InvalidArgumentError,
    InvalidMeshError,
    MarginError,
    NonUniqueMaximizerError,
    SingularPointError,
    UnsupportedOperationError,
)
from .norms import (
    DualNorm,
    EllipseNorm,
    EuclideanNorm,
    L1Norm,
    LinfNorm,
    Norm,
    SmoothedMaxNorm,
    WeightedLpNorm,
    parse_norm,
    unit_sphere_samples,
)
from .wulff import (
    WulffShape,
    crystalline_polytope,
    icosphere,
    monte_carlo_volume,
    polygon_svg,
)
from .mesh import (
    CurvatureField,
    TriSurface,
    VectorField,
    aniso_area,
    curvature,
    enclosed_volume,
    first_variation,
    identity_field,
    lambda_of,
    lp_deviation,
)
from .grid import (
    DistanceField,
    Translate,
    Union,
    VoxelSet,
    chamfer_factor,
    components,
    dilate,
    distance_transform,
    erode,
    rasterize,
    reach_along_batch,
    stencil_offsets,
)
from .shapes import (
    GeneratedShape,
    ShapeSpec,
    gen,
    norm_sequence,
    parse_shape,
    perturbation_pattern,
)
from .verify import (
    PowerLawFit,
    VerificationReport,
    check_disintegration,
    check_erosion_laws,
    check_minkowski_law,
    check_wulff_identity,
    fit_power_law,
    run_bubbling,
)

__version__ = "0.1.0"
