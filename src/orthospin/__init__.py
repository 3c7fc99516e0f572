"""Exact solver and verification suite for the two-parameter
orthogonal-invariant quantum spin system on the complete graph."""

from .partitions import (
    EMPTY,
    LambdaRhoPair,
    Partition,
    column_flip,
    content_sum,
    enumerate_even_partitions,
    enumerate_lambda_rho,
    enumerate_partitions,
    format_partition,
    parse_partition,
    transpose,
)
from .tableaux import cell_branching, dim_sn, lr_coefficient
from .group_chars import (
    char_o_field,
    char_ratio_o,
    dim_gl,
    dim_o,
    dim_so,
)
from .branching import (
    b_coefficient,
    enumerate_Pn,
    is_positive_closed_form,
    reduce_by_recurrence,
    spectral_extract_branching,
)
from .brauer import (
    BrauerDiagram,
    bar,
    identity,
    multiply,
    represent,
    transposition,
    verify_homomorphism,
)
from .spectra import (
    HamiltonianSpec,
    SpectralLine,
    build_hamiltonian,
    convert_parameters,
    dimer_ground_state,
    ising_product_states,
    spectral_lines,
    total_spin_limit,
    total_spin_observable,
    z_decomposed,
    z_direct,
)
from .free_energy import (
    MaximizeResult,
    NotProvenError,
    PhaseResult,
    SimplexPoint,
    beta_c,
    beta_of_xstar,
    classify_phase,
    field_free_energy,
    maximize_phi,
    one_sided_derivatives,
    phi,
    quadratic_alpha,
    trace_curve_C,
)
from .intervals import DomainError, Interval
from .appendix import (
    CertReport,
    certify_positive,
    construct_psi,
    verify_pq_equivalence,
    w_of_z,
    winding_zero_count,
)

__version__ = "0.1.0"
