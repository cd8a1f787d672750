"""Abelianity lines of deformed W-algebra structure functions.

Exact classification of the lines on critical surfaces S_{m,n} where the
quadratic exchange structure becomes abelian, their realization as
intersections of countably many surfaces, an independent symbolic
cancellation oracle, numeric verification through theta-function products,
and the associated Poisson structure functions.
"""

from .lattice import (
    AbelianityVerdict,
    ConstructionFailedError,
    CrossCheckError,
    DegenerateParametrizationError,
    LambdaFamily,
    LambdaPair,
    LineParams,
    NoIntersectionError,
    Surface,
    SuperAbelianityVerdict,
    Verdict,
    Witnesses,
    classify_intersection,
    classify_lambda,
    intersect_surfaces,
    intersection_sides,
    lambda_of_intersection,
    realize_line_as_intersections,
    solve_condition2,
    super_abelianity_check,
    surfaces_through_line,
)
from .oracle import (
    ExponentMultiset,
    centrality_exponents,
    cycle_collapses,
    exchange_exponents,
    is_abelian,
)
from .elliptic import (
    DomainError,
    EllipticContext,
    PoleError,
    centrality_plan,
    centrality_ratio,
    exchange_plan,
    theta,
    ufunc_a,
    verification_grid,
    yfunc,
)
from .poisson import (
    PoissonParamsA,
    PoissonParamsB,
    f_compact,
    f_kk,
    f_series,
    params_for_line,
    theta_logderiv_series,
)

__version__ = "0.1.0"
