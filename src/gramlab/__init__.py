"""gramlab: Gram points, Hardy Z zeros, and Gram's-law statistics.

A numerical laboratory for the distribution of zeta zeros relative to Gram
points: theta and Gram point solvers, two independent Z(t) evaluators,
certified zero location, interval classification under the strict/exact-one/
odd-count Gram laws, occupancy histograms, zero-offset statistics, moment
sums of S at Gram points, and prime-sum comparisons.
"""

from .errors import (ChecksumMismatch, ConvergenceError, DomainError,
                     GramLabError, ParseError, PrecisionError,
                     PreconditionError, ResourceError, UncertifiedRange,
                     VersionMismatch)
from .theta_gram import (GramPoint, ThetaEval, gram_point, gram_points,
                    gram_spacing_report, theta, theta_derivative)
from .zeta import (ZEval, ZetaHalfLine, hardy_z, hardy_z_many,
                   zeta_euler_maclaurin, zeta_half_line)
from .zeros import (CountResult, CriticalZero, ZeroTable, certified_table,
                    completeness_certificate, count_zeros, find_zeros,
                    gram_index_for_height, s_at_gram)
from .gram_law import (DeltaRecord, IntervalRecord, NuHistogram,
                       classify_intervals, delta_array, delta_n, gsp_flags,
                       interval_counts, nu_histogram, offset_ladder_check,
                       offset_ladder_check_range)
from .moments import (EPSILON_DEFAULT, MomentReport,
                      adjacent_difference_moment, alternating_sum,
                      block_difference_moment, empty_and_crowded_counts,
                      first_moment, moment_constants, selberg_delta_moment,
                      titchmarsh_correlation)
from .primes import (DiagonalCheck, PrimeTable, VxhResult,
                     diagonal_identity_check, mertens_sums, residual_moments,
                     sieve_primes, v_xh, v_y)
from .store import CacheManifest, cached_table, load_range, save_range
from .ingest import MatchReport, ingest_external_table
from .reports import Report, render, to_csv, to_json
from .regression import exit_code, run_paper_regression

__version__ = "0.1.0"
