"""fblab: a workbench for free-Banach-lattice norms at desk scale.

Layers, bottom up:

  expr      lattice expressions over named generators, max-min normal form
  lp        slack-basis simplex for the norm LP, float or exact rational
  plfan     stored piecewise-linear functions on 2-D fans, and
            the break rows, zero sets and values that the norm and the cube
            sup norm read from a max-min form or a stored function
  fblnorm   exact norms by LP over candidate rays, oracle lower bounds,
            replayable certificates
  homs      weighted-evaluation lattice homomorphisms, the subset family
  ellone    subsequence extraction with disjoint dual certificates
  ckretract sections of evaluation onto functions on interval unions
  cli       batch front end (console script: fblab)
"""

from .expr import (
    ExprError,
    ExprSyntaxError,
    Gen,
    Join,
    LatticeExpr,
    LinearFunctional,
    MaxMinForm,
    MaxMinSizeError,
    Meet,
    Scale,
    Sum,
    absval,
    evaluate,
    parse_expr,
    support,
    to_maxmin,
    to_text,
)
from .lp import OPTIMAL, UNBOUNDED, LPError, LPResult, solve_lp
from .plfan import (
    Fan,
    FanError,
    PLFunction,
    arrangement_fan,
    fan_from_json,
    fan_to_json,
    pl_equal,
    pl_from_maxmin,
    pl_lincomb,
    pl_pointwise_max,
    pl_value,
    pl_value_many,
    plfunction_from_json,
    plfunction_to_json,
    sup_norm_on_cube,
)
from .fblnorm import (
    AdmissibilitySpace,
    DualConfig,
    NormBracket,
    SpaceError,
    admissible,
    check_lemma34,
    config_value,
    exact_fbl_norm,
    expr_evaluator,
    fbl_space,
    linf_vertex_space,
    load_certificate,
    make_certificate,
    norm_of_expression,
    oracle_lower_bound,
    pl_evaluator,
    replay_certificate,
    write_certificate,
)
from .homs import EvalHom, HomError, PhiInstance, apply_hom, build_phi, check_hom_laws
from .ellone import (
    EpsilonSchedule,
    ExtractionError,
    ExtractionInput,
    ExtractionResult,
    build_disjoint_instance,
    build_perturbed_instance,
    extract,
    verify_lower_bound,
)
from .ckretract import (
    CKError,
    KSpec,
    SectionBundle,
    TargetFunction,
    build_section,
    interval01,
    target_from_pairs,
    target_join,
    target_lincomb,
    two_points,
    union_of_intervals,
    verify_hom_laws,
    verify_norm_bound,
    verify_section,
)

__version__ = "0.1.0"
