"""clonelab: cloning unitary gates through the one-slot comb calculus.

Public surface re-exported here: the channel/comb data types and calculus,
Haar sampling, the irreducible-block machinery, the optimal cloner network
and its baselines, the covariant optimizer, and the protocol simulator.
"""

from .linalg import (
    ATOL_EQ,
    ATOL_PSD,
    ATOL_UNITARY,
    DimensionMismatchError,
    NotHermitianError,
    NotPSDError,
    NotUnitaryError,
    dagger,
    eig_hermitian,
    partial_trace,
    permute_factors,
    psd_residual,
    require_hermitian,
    require_psd,
    require_unitary,
    tensor,
)
from .channels import (
    Channel,
    CombNetwork,
    CompletenessError,
    apply_channel,
    channel_fidelity_with_double_unitary,
    choi_from_kraus,
    choi_of_unitary,
    comb_fidelity_functional,
    comb_from_pre_post,
    comb_normalization_residuals,
    insert_gate,
    kraus_of,
    make_channel,
    max_entangled_vec,
    vec,
)
from .haar import SeededRng, average_fidelity_mc, haar_unitaries, sample_haar_unitary
from .irreps import (
    IrrepBlocks,
    IrrepTable,
    NotCovariantError,
    block_fidelity,
    blocks_from_choi,
    build_irrep_table,
    irrep_dims,
    require_covariant,
    sector_dims,
    swap_operator,
    sym_antisym_projectors,
    terms_from_blocks,
    twirl,
    verify_covariance,
)
from .cloner import (
    ClonerAssembly,
    build_cloner,
    choi_r1_of_cloner,
    choi_r1_of_decohered_cloner,
    closed_form_fidelity,
    cloner_channel,
    cloner_channel_closed_form,
    controlled_swap_dilation,
    decohered_cloner_channel,
    first_factor_network,
    post_channel_b,
    pre_channel_a,
)
from .optimizer import (
    ConvergenceError,
    OptimizationProblem,
    OptimizationResult,
    analytic_bound,
    build_problem,
    solve,
)
from .baselines import (
    BaselineReport,
    build_report,
    f_decohered,
    f_estimation,
    f_learning,
    f_random,
    helstrom_error,
    majority_vote_error,
    no_cloning_fixed_points,
    permutation_discrimination,
)
from .protocol import (
    GateBases,
    ProtocolStats,
    build_bases,
    mutual_unbiasedness_matrix,
    pauli_matrices,
    rotation_gate,
    run_exact,
    run_sampled,
)

__version__ = "0.1.0"
