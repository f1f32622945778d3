"""dblab: a pseudospectral laboratory for dispersive Burgers equations

Simulates  d_t u + L u = d_x(u^2)  on a periodic grid for the pure-power,
Whitham and ILW dispersion symbols, and numerically verifies the identities
behind the dyadic energy method: Littlewood-Paley partitions, resonance
comparability, commutator decompositions, Marcinkiewicz bounds, and the
Fourier-defined modified energies with their coercivity.
"""

from .errors import BlowUpError, ConfigurationError, DomainError, EvaluationError
from .spectral import (
    Field,
    SpectralGrid,
    TrajectoryRecord,
    apply_multiplier,
    bar_sobolev_norm,
    dealiased_product,
    dealiased_square,
    derivative,
    field_from_coeffs,
    field_from_function,
    homogeneous_norm,
    l2_inner,
    load_field_csv,
    save_field_csv,
    sobolev_norm,
    transform,
    zero_field,
)
from .symbols import (
    DispersionSymbol,
    HypothesisReport,
    check_hyp2,
    check_hypothesis1,
    ilw,
    lambda_half_multiplier,
    lwp_threshold,
    pure_power,
    scaling_critical_index,
    whitham,
)
from .dyadic import (
    DyadicLadder,
    cutoff_table,
    eta,
    modulation_project,
    phi,
    phi_n,
    project,
    project_band,
    tilde_phi,
    tilde_phi_n,
)
from .resonance import ComparabilityReport, omega2, omega3, verify_res2, verify_res3
from .multipliers import (
    MarcinkiewiczReport,
    MultiplierSymbol,
    apply_pi2,
    apply_pi3,
    check_marcinkiewicz,
    constant_symbol,
    gt_functional,
    symbol_chi1,
    symbol_chi1_over_omega2,
    symbol_chi_commutator,
    tensor_cutoff_symbol,
)
from .energies import (
    CoercivityResult,
    DifferenceEnergyReport,
    EnergyReport,
    coercivity_check,
    corrector_term,
    difference_coercivity_check,
    difference_energy,
    hamiltonian,
    mass,
    modified_energy,
    sigma_window,
)
from .solver import (
    SolverConfig,
    run,
    scaling_check,
    self_convergence,
    trajectory,
)

__version__ = "0.1.0"
