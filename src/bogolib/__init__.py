"""Number-conserving Bogoliubov toolkit for the 1D Bose gas.

Solves stationary and time-dependent Gross-Pitaevskii equations, builds
and diagonalizes the quadratic phonon Hamiltonian in the subspace
orthogonal to the condensate, computes the coefficients connecting
ground states whose particle number differs by one, and ships analytic
plus exact-diagonalization oracles for the uniform gas.  Units:
hbar = m = 1.
"""

__version__ = "0.1.0"

from .bdg import (
    PhononBasis,
    QuadraticHamiltonian,
    QuasiparticleSpectrum,
    StabilityReport,
    assemble,
    build_phonon_basis,
    check_stability,
    diagonalize,
    h3_expectation,
)
from .errors import (
    BogolibError,
    ConfigurationError,
    ConvergenceError,
    DimensionMismatchError,
    InstabilityError,
    IntegratorError,
    ResourceError,
    TruncationError,
)
from .gpe import (
    CondensateState,
    SolveTrace,
    chemical_potential,
    default_tol,
    energy_functional_h1,
    gpe_residual,
    h2_coefficients,
    harmonic_potential,
    solve_stationary,
    zero_potential,
)
from .grid import (
    ComplexField,
    Grid1D,
    build_grid,
    inner_product,
    norm,
)
from .homogeneous import (
    AsymptoticsReport,
    FockSpectrum,
    HydroCoefficients,
    bogoliubov_dispersion,
    compare_asymptotics,
    exact_fock_spectrum,
    hydro_coefficients,
    number_conservation_offblock,
    sound_mode_energy,
)
from .number_shift import (
    MatrixElements,
    NumberShiftReport,
    PhaseFixResult,
    StationaryProblem,
    build_report,
    exact_dxi_dN,
    matrix_elements,
    modified_amplitudes,
    phase_fix_and_r,
)
from .tdgpe import (
    HrDiagnostic,
    StaticPotential,
    Trajectory,
    TrapQuench,
    TrapRamp,
    center_of_mass,
    h3_of_t,
    hr_diagnostic,
    mu_from_rate,
    propagate,
)

__all__ = [name for name in dir() if not name.startswith("_")]
