"""sparsekit: graph sparsification with exact verification oracles.

Spanners (randomized, derandomized, distributed, linear-size,
ultra-sparse, clustering-based), sparse k-connectivity certificates,
and a synchronous message-passing simulator with per-edge bit budgets.
"""

from __future__ import annotations

__version__ = "0.1.0"

from .baswana_sen import (
    BaswanaSenProgram,
    BSState,
    initial_state,
    run_distributed_spanner,
    run_g_iterations,
    run_iteration,
    spanner,
)
from .certificates import (
    certificate_large_k,
    certificate_small_k,
    edge_connectivity,
    verify_certificate,
)
from .clustering import Cluster, ClusterGraph, Clustering, compose_spanner, contract
from .congest import (
    Halt,
    LocalView,
    NodeProgram,
    RoundTrace,
    default_budget_bits,
    derive_randomness,
    derived_coin,
    run,
    run_on_cluster_graph,
)
from .derand import (
    UtilityContext,
    conditional_expectation,
    deterministic_spanner,
    fix_bits,
)
from .errors import (
    BudgetViolationError,
    ConfigurationError,
    InvalidClusteringError,
    InvalidGraphError,
    InvariantViolation,
    ParameterError,
    SimulationTimeout,
    SparsekitError,
)
from .graph import Edge, EdgeSet, Graph
from .ldc import (
    InterEdgeLedger,
    SeparatedClustering,
    WeakCluster,
    carve_clustering,
    grow_and_cut,
    ldc_sparse_spanner,
    weak_diameter_spanner,
)
from .stretch_friendly import (
    Color3Program,
    PartitionReport,
    color3,
    match_small,
    merge_step,
    partition,
)
from .ultra_sparse import (
    linear_size_spanner,
    ultra_sparse_spanner,
    x_seq_holds,
)
from .verify import (
    StretchFriendlyReport,
    StretchReport,
    apsp,
    measure_stretch,
    sssp,
    verify_stretch,
    verify_stretch_friendly,
)
