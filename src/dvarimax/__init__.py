"""Factor loading estimation by truncated PCA with a deflation varimax rotation."""

__version__ = "0.1.0"

from .estimator import (EstimatorVariant, LoadingEstimate, estimate_loading,
                        loading_from_rotation, predict_factors)
from .evaluate import (ExperimentGrid, ExperimentRecord, SummaryRow, aggregate,
                       records_to_csv, run_experiment, signed_permutation_error,
                       summary_to_csv)
from .exceptions import (CorrectionInfeasibleError, DeflationVarimaxError,
                         DegenerateProjectorError, DegenerateSlicingError,
                         DegenerateSolutionsError, DivergenceError, NoSignalError,
                         RankDeficiencyError)
from .initialization import (InitScheme, complement_projector,
                             make_init_provider, mom_init, multi_random_init,
                             random_init, slice_operator)
from .model import (NOISE_KINDS, GroundTruth, ObservationMatrix,
                    SyntheticConfig, generate_dataset, generate_factors,
                    generate_loading)
from .rng import derive_seed, substream
from .rotation import (FourthMoment, RotationResult, RotationSolveConfig,
                       complement_basis, deflate, fourth_moment, pgd_solve,
                       symmetric_orthogonalize)
from .spectral import (PcaDecomposition, corrected_decomposition, eigendecompose,
                       leading_eigenvalues, noise_variance_estimate, select_rank)

__all__ = [
    "__version__",
    # model
    "ObservationMatrix", "GroundTruth", "NOISE_KINDS", "SyntheticConfig",
    "generate_loading", "generate_factors", "generate_dataset",
    # spectral
    "PcaDecomposition", "eigendecompose", "leading_eigenvalues",
    "noise_variance_estimate",
    "corrected_decomposition", "select_rank",
    # rotation
    "RotationSolveConfig", "RotationResult", "FourthMoment", "fourth_moment",
    "pgd_solve", "complement_basis", "deflate", "symmetric_orthogonalize",
    # initialization
    "InitScheme", "complement_projector", "random_init",
    "multi_random_init", "slice_operator", "mom_init", "make_init_provider",
    # estimator
    "EstimatorVariant", "LoadingEstimate",
    "estimate_loading", "loading_from_rotation", "predict_factors",
    # evaluation
    "ExperimentGrid", "ExperimentRecord", "SummaryRow",
    "signed_permutation_error", "run_experiment", "aggregate",
    "records_to_csv", "summary_to_csv",
    # rng
    "substream", "derive_seed",
    # errors
    "DeflationVarimaxError", "RankDeficiencyError", "CorrectionInfeasibleError",
    "DivergenceError", "DegenerateSolutionsError", "NoSignalError",
    "DegenerateProjectorError", "DegenerateSlicingError",
]
