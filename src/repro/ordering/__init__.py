"""Fill-reducing orderings: nested dissection, AMD, RCM (Scotch stand-ins)."""

from .amd import amd_ordering, minimum_degree_order
from .base import ORDERINGS, compute_ordering, natural_ordering, register_ordering
from .nested_dissection import NDOptions, nd_ordering, nested_dissection_order
from .permutation import (
    Permutation,
    compose_permutations,
    identity_permutation,
    invert_permutation,
    is_permutation,
)
from .rcm import rcm_ordering
from .scotch_like import ScotchLikeOptions, scotch_like_ordering

__all__ = [
    "ORDERINGS",
    "compute_ordering",
    "natural_ordering",
    "register_ordering",
    "amd_ordering",
    "minimum_degree_order",
    "NDOptions",
    "nd_ordering",
    "nested_dissection_order",
    "Permutation",
    "compose_permutations",
    "identity_permutation",
    "invert_permutation",
    "is_permutation",
    "rcm_ordering",
    "ScotchLikeOptions",
    "scotch_like_ordering",
]
