"""Sparse-matrix substrate: storage, I/O, graphs, and synthetic workloads."""

from .csc import (
    SymmetricCSC,
    expand_symmetric,
    lower_csc,
    permute_symmetric,
    structural_nnz_symmetric,
)
from .generators import (
    arrow_matrix,
    block_dense_spd,
    bone_like,
    flan_like,
    grid_laplacian_2d,
    grid_laplacian_3d,
    random_spd,
    stencil_27pt,
    thermal_like,
    tridiagonal_spd,
)
from .graph import AdjacencyGraph, bfs_levels, connected_components, pseudo_peripheral_vertex
from .io_mm import read_matrix_market, write_matrix_market
from .io_rb import read_rutherford_boeing, write_rutherford_boeing
from .suitesparse import (
    PAPER_MATRICES,
    SuiteSparseEntry,
    find_matrix_file,
    load_suitesparse,
)
from .validate import (
    NotPositiveDefiniteError,
    NotSymmetricError,
    check_finite,
    check_rhs,
    check_square,
    check_symmetric,
    probable_spd,
)


def read_matrix_auto(path) -> SymmetricCSC:
    """Read a matrix file, dispatching on its suffix.

    Accepts Matrix Market (``.mtx`` / ``.mm``) and Rutherford-Boeing
    (``.rb`` / ``.rsa``) files — the two formats the paper's drivers
    consume.  Shared by the CLI and the solve-service spool server.
    """
    from pathlib import Path

    suffix = Path(path).suffix.lower()
    if suffix in (".mtx", ".mm"):
        return read_matrix_market(path)
    if suffix in (".rb", ".rsa"):
        return read_rutherford_boeing(path)
    raise ValueError(f"unsupported matrix format {suffix!r} "
                     "(use .mtx/.mm or .rb/.rsa)")


__all__ = [
    "SymmetricCSC",
    "expand_symmetric",
    "lower_csc",
    "permute_symmetric",
    "structural_nnz_symmetric",
    "AdjacencyGraph",
    "bfs_levels",
    "connected_components",
    "pseudo_peripheral_vertex",
    "read_matrix_auto",
    "read_matrix_market",
    "write_matrix_market",
    "read_rutherford_boeing",
    "write_rutherford_boeing",
    "PAPER_MATRICES",
    "SuiteSparseEntry",
    "find_matrix_file",
    "load_suitesparse",
    "NotPositiveDefiniteError",
    "NotSymmetricError",
    "check_finite",
    "check_rhs",
    "check_square",
    "check_symmetric",
    "probable_spd",
    "arrow_matrix",
    "block_dense_spd",
    "bone_like",
    "flan_like",
    "grid_laplacian_2d",
    "grid_laplacian_3d",
    "random_spd",
    "stencil_27pt",
    "thermal_like",
    "tridiagonal_spd",
]
