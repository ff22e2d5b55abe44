"""Sparse random tensor toolkit.

Sparse Bernoulli tensor generation, tensor unfolding, spectral-norm
sandwich estimation, degree-threshold regularization, bounded-degree
hypergraph expander construction with mixing verification, uniform
sparsification, and a deterministic Monte-Carlo experiment harness.
"""

from .core import (
    DENSE_GATE,
    DenseGateError,
    DenseProbability,
    Homogeneous,
    OffsetTensor,
    ShapeMismatchError,
    SparseTensor,
    TensorError,
    TensorShape,
    VectorTuple,
    center,
    frobenius_norm,
    multilinear_form,
)
from .diagnostics import bounded_degree_check, discrepancy_check, kl_bernoulli
from .harness import ConfigError, ExperimentConfig, ResultRecord, load_config, run, summarize
from .hypergraph import (
    Hypergraph,
    MixingReport,
    SubsetFamilies,
    adjacency,
    count_edges,
    matrix_mixing_check,
    mixing_check,
    sample_subset_families,
)
from .regularization import (
    DegreeMap,
    RegularizationResult,
    degree_map,
    expander_construct,
    regularize,
    removed_count_check,
)
from .rng import SeedSpec
from .sampling import bernoulli_sample, er_hypergraph, sparsify_uniform
from .spectral import (
    HopmResult,
    MatrixNormResult,
    PowerIterConfig,
    SpectralEstimate,
    hopm_lower,
    matrix_op_norm,
    slice_lower,
    spectral_sandwich,
)
from .unfolding import (
    Partition,
    UnfoldedView,
    balanced_partition,
    phi_array,
    unfold,
)

__version__ = "0.1.0"
