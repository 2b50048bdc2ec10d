"""stieltjeskit: matrix-valued Stieltjes-class functions.

Construction, evaluation, conversion, limit-based parameter extraction,
Moore-Penrose transforms, duality, and sampled class certification for
matrix functions represented by finite atomic Hermitian measures.
"""

__version__ = "0.1.0"

from .errors import (
    ClassMismatch,
    DegenerateMap,
    DimensionMismatch,
    EvaluationFailed,
    IllegalConversion,
    InconsistentEquivalence,
    InvalidArgument,
    NoConvergence,
    NonFiniteKernel,
    NonPsdDensity,
    NotAnAtom,
    NotHermitian,
    NotPsd,
    PoleProximity,
    PreconditionUnmet,
    RankInstability,
    ShiftNotPsd,
    StieltjesKitError,
    SupportViolation,
    UnsupportedKind,
    UnsupportedPath,
)
from .matmeasure import (
    MatrixMeasure,
    SupportSet,
    image_measure,
    integrate,
    left_ray,
    moments,
    open_left_ray,
    open_right_ray,
    quadrature_ingest,
    right_ray,
    scalar_projection,
    total_mass,
    whole_line,
)
from .representations import (
    Evaluator,
    KKPair,
    NevanlinnaTriple,
    S0Measure,
    SInfTriple,
    StieltjesPair,
    T0Measure,
    TInfTriple,
    TPair,
    convert,
    eval_mulz,
    evaluate,
    evaluator,
    im_mulz_closed,
    im_re_parts,
    rank_constancy,
    repr_from_json,
    repr_to_json,
    residue_weight,
)
from .limits import LimitEstimate, limit_at_infinity
from .classifier import (
    Certificate,
    GridConfig,
    certify_class,
    eigen_invariance,
    extract_params,
    kernel_range_report,
    null_domination,
)
from .transforms import (
    PinvResult,
    congruence_sum,
    direct_sum,
    dual_map,
    is_ep,
    neg_pinv_map,
    pinv,
    pinv_map,
    shift,
    transpose_map,
)
