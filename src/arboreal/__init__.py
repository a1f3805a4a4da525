"""Exact computation with reduced leaf-labeled trees.

Enumeration of trees and their amalgamations, the one-parameter measure on
tree embeddings and its universal-coefficient image in Z[u,v]/(uv), the
morphism algebras built from measured amalgamations, and a CLI with a
machine-checked reference suite.
"""

from arboreal.amalgam import (
    AmalgamError,
    Amalgamation,
    TripleAmalgamation,
    amalgamation_trees,
    amalgamations,
    count_by_shape,
    enumerate_trees,
    self_amalgamations,
    triple_amalgamations,
)
from arboreal.category import (
    ArborealAlgebra,
    HomElement,
    algebra_for,
    categorical_trace,
    compose,
    embedding_morphisms,
    hom_basis,
    identity_hom,
    tensor_summands,
    transpose,
    triple_trace,
    truncate_level,
)
from arboreal.measure import (
    LevelError,
    MarkedTree,
    ParamSpec,
    mu_embedding,
    mu_of_tree,
    mu_sum,
    mu_symbolic,
    theta_generator_values,
    verify_amalgamation_equation,
)
from arboreal.ratfun import Poly, PoleError, RatFun, parse_ratfun
from arboreal.theta import (
    ThetaElement,
    mark_type,
    minimize_marked,
    separated,
    separated_bruteforce,
    ss2_witness,
    theta_eval,
    theta_image,
    verify_L_relation,
)
from arboreal.trees import (
    Tree,
    TreeError,
    TreeStats,
    aut_order,
    canonical_key,
    parse_tree,
    quaternary,
    restrict,
    shape_key,
    stats,
)

__version__ = "0.1.0"
