"""tsclust: subspace clustering by thresholding point correlations.

Builds a q-nearest-neighbor graph under the spherical pseudo-distance
``arccos |<x_i, x_j>|``, symmetrizes the retained weights into an adjacency
matrix, and applies normalized spectral clustering, estimating the number of
clusters from the Laplacian eigengap when it is not given.  Ships with an
inner-product outlier detector, seeded synthetic data generators, clustering
metrics, an MNIST-format loader, and a reproducible experiment harness.
"""

__version__ = "0.1.0"

from .errors import (
    BadMagic,
    ConfigError,
    DimMismatch,
    InsufficientImages,
    InvalidDims,
    InvalidK,
    LengthMismatch,
    NonFinite,
    QTooLarge,
    TooFewPoints,
    TruncatedFile,
    TscError,
    ZeroVector,
)
from .geometry import (
    PointSet,
    SubspaceBasis,
    normalize_columns,
)
from .ingest import (
    IdxDataset,
    load_idx,
    remove_top_principal_components,
    singular_value_profile,
    subsample_digits,
)
from .metrics import (
    clustering_error,
    el_error,
    feature_detection_error,
    outlier_confusion,
)
from .numerics import (
    KMeansResult,
    SpectralDecomposition,
    derive_seed,
    kmeans,
    sym_eig,
)
from .outliers import NOISELESS_C, NOISY_C, OutlierReport, detect_outliers
from .synth import (
    GroundTruth,
    corrupt,
    haar_basis,
    inner_product_abs_cdf,
    inner_product_abs_pdf,
    intersecting_pair,
    orthogonal_ensemble,
    sample_outliers,
    sample_subspace_points,
    shared_intersection_ensemble,
    union_of_subspaces,
)
from .tsc import (
    ClusterResult,
    NeighborGraph,
    TscConfig,
    assemble_adjacency,
    compute_weights,
    default_q,
    estimate_L_eigengap,
    normalized_laplacian,
    run_tsc,
    select_neighbors,
)

__all__ = [name for name in dir() if not name.startswith("_")]
