"""dblab: a pseudospectral laboratory for dispersive Burgers equations

Simulates  d_t u + L u = d_x(u^2)  on a periodic grid for the pure-power,
Whitham and ILW dispersion symbols, and numerically verifies the identities
behind the dyadic energy method: Littlewood-Paley partitions, resonance
comparability, commutator decompositions, Marcinkiewicz bounds, and the
Fourier-defined modified energies with their coercivity.

The package namespace holds the API of the README's library sketch; every
other name is imported from its module (``dblab.spectral``, ``dblab.dyadic``,
``dblab.multipliers``, ...).
"""

from .errors import BlowUpError, ConfigurationError, DomainError, EvaluationError
from .spectral import Field, SpectralGrid, field_from_function
from .symbols import ilw, lwp_threshold, pure_power, scaling_critical_index, whitham
from .resonance import verify_res2
from .energies import coercivity_check, hamiltonian, modified_energy
from .solver import SolverConfig, trajectory

__version__ = "0.1.0"
