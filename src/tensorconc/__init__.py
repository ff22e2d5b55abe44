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
    contract_all_but_one,
    dumps_tensor,
    frobenius_inner,
    frobenius_norm,
    hadamard,
    loads_tensor,
    multilinear_form,
    rank1,
)
from .diagnostics import (
    DyadicProfile,
    LatticeNet,
    TupleSplit,
    bounded_degree_check,
    discrepancy_check,
    dyadic_profile,
    kl_bernoulli,
    lattice_net,
    light_contribution_check,
    net_supremum_check,
    split_tuples,
)
from .harness import ConfigError, ExperimentConfig, ResultRecord, load_config, run, summarize
from .hypergraph import (
    Hypergraph,
    MixingReport,
    SubsetFamilies,
    adjacency,
    box_sum,
    count_edges,
    dumps_hypergraph,
    loads_hypergraph,
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
    multiway_partition,
    phi,
    phi_array,
    phi_inverse,
    unfold,
)

__version__ = "0.1.0"
