"""Symbolic factorization: etree, structures, supernodes, blocks."""

from .analysis import SymbolicAnalysis, analyze
from .blocks import Block, BlockPartition, partition_blocks
from .cache import AnalysisCache
from .etree import (
    children_lists,
    elimination_tree,
    first_descendants,
    is_valid_etree,
    postorder,
    tree_levels,
)
from .colcounts import column_counts_gnp
from .structure import (
    SymbolicL,
    column_counts,
    column_structures_flat,
    factor_nnz,
)
from .supernodes import AmalgamationOptions, SupernodePartition, detect_supernodes

__all__ = [
    "AnalysisCache",
    "SymbolicAnalysis",
    "analyze",
    "Block",
    "BlockPartition",
    "partition_blocks",
    "children_lists",
    "elimination_tree",
    "first_descendants",
    "is_valid_etree",
    "postorder",
    "tree_levels",
    "SymbolicL",
    "column_counts",
    "column_counts_gnp",
    "column_structures_flat",
    "factor_nnz",
    "AmalgamationOptions",
    "SupernodePartition",
    "detect_supernodes",
]
