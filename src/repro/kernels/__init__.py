"""Dense kernels (POTRF/TRSM/SYRK/GEMM), flop formulas and the
declarative kernel-dispatch layer.

Importing this package pins the bundled OpenBLAS libraries to one thread
(:func:`~repro.kernels.dense.pin_blas_threads`), so factors and solutions
do not depend on ``OPENBLAS_NUM_THREADS``."""

from .dense import (
    OP_GEMM,
    OP_POTRF,
    OP_SYRK,
    OP_TRSM,
    gemm_nt,
    pin_blas_threads,
    potrf,
    syrk_lower,
    trsm_right_lower_trans,
)
from .dispatch import KERNEL_OPS, ExecContext, KernelCall, KernelExecutor
from .flops import (
    gemm_flops,
    gemv_flops,
    kernel_flops,
    potrf_flops,
    syrk_flops,
    trsm_flops,
    trsv_flops,
)

pin_blas_threads()

__all__ = [
    "OP_GEMM",
    "OP_POTRF",
    "OP_SYRK",
    "OP_TRSM",
    "gemm_nt",
    "pin_blas_threads",
    "potrf",
    "syrk_lower",
    "trsm_right_lower_trans",
    "KERNEL_OPS",
    "ExecContext",
    "KernelCall",
    "KernelExecutor",
    "gemm_flops",
    "gemv_flops",
    "kernel_flops",
    "potrf_flops",
    "syrk_flops",
    "trsm_flops",
    "trsv_flops",
]
