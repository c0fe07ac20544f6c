"""Exception taxonomy shared by all modules.

Every error carries an ``exit_code`` used by the command-line front end:
2 = bad configuration or input, 3 = numerical failure (non-convergence,
integrator breakdown, truncation), 4 = dynamical instability, 5 = resource
limit exceeded.
"""


class BogolibError(Exception):
    """Base class for all library errors."""

    exit_code = 1


class ConfigurationError(BogolibError):
    """Invalid parameter, config key, or unsupported physical regime."""

    exit_code = 2


class DimensionMismatchError(BogolibError):
    """Operands defined on different grids or with incompatible shapes."""

    exit_code = 2


class ConvergenceError(BogolibError):
    """Iterative solver exhausted its budget.

    Attributes
    ----------
    residual : float
        Residual norm at the last iterate.
    """

    exit_code = 3

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


class IntegratorError(BogolibError):
    """Time integrator violated a conservation bound; reduce the step."""

    exit_code = 3


class TruncationError(BogolibError):
    """A field has a non-negligible component outside the retained basis."""

    exit_code = 3


class InstabilityError(BogolibError):
    """The quadratic Hamiltonian has no quasiparticle spectrum.

    Raised when D = [[M, G], [G*, M*]] is not positive definite: a
    complex frequency, a negative energy or a zero mode.

    Attributes
    ----------
    eigenvalues : numpy.ndarray or None
        The 2K eigenvalues of sigma D, sorted by real then imaginary part.
    """

    exit_code = 4

    def __init__(self, message, eigenvalues=None):
        super().__init__(message)
        self.eigenvalues = eigenvalues


class ResourceError(BogolibError):
    """Requested computation exceeds a hard size limit."""

    exit_code = 5
