"""Block-rotation singular value toolkit.

Core pieces: block partitions and norms (``matcore``), block
Givens rotations (``givens``), iterative block diagonalization
(``blockdiag``), singular value perturbation bounds for zeroed blocks
(``bounds``), sparse non-negative random column ensembles and their
expected Gram spectra (``randmat``), and an end-to-end certified low-rank
approximation pipeline (``pipeline``) with Matrix Market I/O (``mmio``)
and a CLI (``cli``).
"""

from .blockdiag import (BlockDiagResult, GapCertificate, SweepRecord,
                        SweepTrace, block_diagonalize, check_lemma11,
                        kyfan_column_bounds, top_singular_values)
from .bounds import (BoundReport, SpectralPartition, example1_sigma2,
                     kernel_restricted_norm, mu_bounds, small_rank_bounds,
                     theorem2_bounds, weyl_gap_bounds)
from .givens import (BlockGivens, BlockRotationFactors, SingularBlockError,
                     block_rotation_decompose, block_trig, build_left_rotation,
                     build_right_rotation, householder_block, rotation_weight)
from .matcore import (BlockPartition, CheckItem, CheckReport, MatrixError,
                      NormBound, as_matrix, certified_norm, operator_norm,
                      psd_apply, schur_test_bound)
from .mmio import MatrixMarketError, read_matrix, write_matrix
from .pipeline import (ApproxReport, PartitionPlan, PipelineError,
                       algorithm2, approximate, plan_partition)
from .randmat import (ColumnProfile, GammaSpec, RandomColumnModel,
                      check_S1, corollary10_bounds, density, derived_stats,
                      empirical_gram, expected_gram, fluctuation_bounds,
                      gamma_rho_prediction, lemma13_stats, moment_ratio,
                      sample_column_binary, sample_column_fixed_size,
                      sample_column_fixed_size_norm,
                      sample_sizes_truncated_gamma, stream, theorem3_bounds)
from .verify import VerifyReport, run_suite

__version__ = "0.1.0"
