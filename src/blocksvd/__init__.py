"""Block-rotation singular value toolkit.

Core pieces: block partitions and norms (``matcore``), block
Givens rotations (``givens``), iterative block diagonalization
(``blockdiag``), singular value perturbation bounds for zeroed blocks
(``bounds``), sparse non-negative random column ensembles and their
expected Gram spectra (``randmat``), and an end-to-end certified low-rank
approximation pipeline (``pipeline``) with Matrix Market I/O (``mmio``)
and a CLI (``cli``).

The names below load lazily (PEP 562): ``import blocksvd`` imports no
submodule, and ``blocksvd.X`` or ``from blocksvd import X`` imports the
module that defines ``X`` on first use, so a command pays only for the
modules it runs.
"""

import importlib

__version__ = "0.1.0"

# Each public name once, under the module that defines it.
_EXPORTS = {
    "blockdiag": ("BlockDiagResult", "GapCertificate", "SweepRecord", "SweepTrace",
                  "block_diagonalize", "check_lemma11", "kyfan_column_bounds",
                  "top_singular_values"),
    "bounds": ("BoundReport", "SpectralPartition", "example1_sigma2",
               "kernel_restricted_norm", "mu_bounds", "small_rank_bounds",
               "theorem2_bounds", "weyl_gap_bounds"),
    "givens": ("BlockGivens", "BlockRotationFactors", "block_rotation_decompose",
               "block_trig", "build_left_rotation", "build_right_rotation",
               "householder_block", "rotation_weight"),
    "matcore": ("BlockPartition", "CheckItem", "CheckReport", "MatrixError", "NormBound",
                "SingularBlockError", "as_matrix", "certified_norm", "check_pivot", "cos_sin",
                "operator_norm", "pow2_scale", "schur_test_bound"),
    "mmio": ("MatrixMarketError", "read_matrix", "write_matrix"),
    "pipeline": ("ApproxReport", "PartitionPlan", "PipelineError", "algorithm2",
                 "approximate", "plan_partition"),
    "randmat": ("ColumnProfile", "GammaSpec", "RandomColumnModel", "check_S1",
                "corollary10_bounds", "density", "empirical_gram", "expected_gram",
                "fluctuation_bounds", "gamma_rho_prediction", "lemma13_stats",
                "moment_ratio", "sample_column_binary", "sample_column_fixed_size",
                "sample_column_fixed_size_norm", "sample_sizes_truncated_gamma",
                "stream", "theorem3_bounds"),
    "verify": ("VerifyReport", "run_suite"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    if name in _EXPORTS:        # a submodule not yet imported
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
    globals()[name] = value     # later lookups skip this function
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
