"""Eigenvalue spectra of autoregressive image models under upscaling.

The package synthesizes causal 2D-AR(1) random fields, upscales them with
polyphase interpolation operators, computes the asymptotic eigenvalue
densities of their renormalized sample autocorrelation matrices through the
eta-transform / Stieltjes inversion machinery, and builds a resampling
detector and a resampling-factor estimator on top of the resulting
signal/noise eigenvalue separation.
"""

from .armodel import (ArParams, SampleAutocorr, generate_field,
                      sample_autocorr, standardize)
from .bench import (ExperimentSpec, RocCurve, genuine_block, parse_factor,
                    roc_auc, run_figure, run_snr_sweep, upscaled_block)
from .detect import DetectionResult, DetectorConfig, detect
from .errors import (ConvergenceFailure, InputError, NumericalError,
                     ParseError, RespectraError)
from .estimate import EstimationResult, EstimatorConfig, estimate
from .matcore import (ar_gram_matrix, ar_gram_sequence, ar_u_matrix,
                      gaussian_matrix, rng_from_seed, spawn_seeds)
from .pgm import ImageGray, central_block, read_pgm
from .resample import (KERNELS, KernelSpec, ResampleSpec, build_polyphase,
                       exact_autocorr_matrix, get_kernel, kernel_autocorr,
                       quantize, support_columns, upscale)
from .rmt import (DEFAULT_CONFIG, EigenPdf, EtaSolverConfig, eigen_pdf,
                  eta_transform, quadrature_nodes, stieltjes,
                  support_lower_edge)
from .spectra import (MpEdges, SpectralLaw, afze, cosine_series, d_genuine,
                      d_upscaled, gap_lower_bound, law_genuine, law_upscaled,
                      mp_edges, signal_floor_bound)

__version__ = "0.1.0"
