"""Soft-number arithmetic and soft probability for continuous random variables.

A soft number a*0~ + b pairs an infinitesimal coefficient (soft part) with an
ordinary real part; the soft axis carries probability density where classical
point probabilities collapse to zero.  On top of the arithmetic this package
provides soft probabilities of point and interval events, soft moments and
information measures over mixed point + interval sets, and a decision-tree
inducer whose split score is soft mutual information.
"""

from types import ModuleType as _ModuleType

from .errors import ConvergenceError, DegenerateModelError, DomainError, SoftProbError
from .softnum import (
    CONJUGATE,
    ExtendedSoftNumber,
    SIGN_RULE,
    SoftNumber,
    SymmetricPair,
    cmp,
    div,
    ext_from_dict,
    ext_to_dict,
    from_sp,
    lift,
    pow_nat,
    render_extended,
    render_soft,
    soft_abs,
    soft_from_dict,
    soft_to_dict,
    to_sp,
)
from .quadrature import DEFAULT_1D, QuadratureConfig, integrate_1d, integrate_2d
from .distributions import (
    BivariateGaussianModel,
    ContinuousDistribution,
    Gaussian,
    JointModel,
    Uniform,
    UserDefinedDistribution,
    joint_gaussian_additive,
    parse_distribution,
    parse_joint,
)
from .probability import (
    IntervalEvent,
    Relation,
    ps2,
    ps_cond_point_given_interval,
    ps_cond_point_given_point,
    ps_eq,
    ps_interval,
    ps_intersect_point_interval,
    ps_leq,
    ps_lt,
    ps_neq,
    ps_points_intersection,
    ps_points_union,
    ps_union_point_interval,
)
from .moments import (
    MixedSet,
    SoftMoments,
    soft_expectation,
    soft_expectation_of,
    soft_sum,
    soft_variance,
)
from .information import (
    InfoConfig,
    ZLOGZ_AXIS,
    ZLOGZ_COLLAPSE,
    soft_cross_entropy,
    soft_entropy,
    soft_kld,
    soft_mutual_information,
)
from .tree import (
    Dataset,
    Leaf,
    Observation,
    Split,
    TreeConfig,
    build_mixed_sets,
    fit_joint_model,
    induce,
    parse_dataset,
    predict,
    split_gain,
    tree_from_dict,
    tree_to_dict,
)

__version__ = "0.1.0"

# the public names are the ones imported above, so they are listed only there
__all__ = sorted(name for name, value in globals().items()
                 if not (name.startswith("_") or isinstance(value, _ModuleType)))
