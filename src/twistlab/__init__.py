"""Exact engine for braid-monoid actions by spherical twists over ADE zigzag algebras."""

from .braid import (
    BraidWord,
    DynkinDiagram,
    LayeredWord,
    build_diagram,
    braid_class,
    canonical_form,
    diagram_from_name,
    equivalent,
    layer,
    left_divisible_by,
    neighbors,
    word,
)
from .fields import GF2, QQ, PrimeField, RationalField, field_from_name
from .zigzag import ZigzagAlgebra
from .complexes import (
    ChainMap,
    ProjComplex,
    cone,
    hom_complex,
    hom_dims,
    make_complex,
    minimize,
    profile,
    projective,
    shift,
    sum_of_projectives,
)
from .twists import (
    TwoTermObject,
    TwoTermPrediction,
    is_left_proper,
    is_right_proper,
    is_twist_image,
    reflect_minus,
    reflect_plus,
    twist,
    twist_inv,
    twist_inv_word,
    twist_word,
    two_term_of,
    two_term_reflect,
)
from .reconstruct import (
    NotTwistImage,
    min_degree,
    peel,
    recover_trace,
    recover_word,
)
from .meshbraid import (
    BraidMove,
    CommuteMove,
    DecoratedSet,
    MeshError,
    apply_moves,
    braid_move,
    check_mesh_relations,
    chi_boundary,
    chi_of_layered,
    commute_move,
    find_left_divisor,
    mesh,
    tau,
    to_decorated,
    to_dot,
    word_of,
)

__version__ = "0.1.0"
