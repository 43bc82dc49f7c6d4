"""Exception taxonomy.

Every failure mode that callers are expected to handle gets its own class so
the CLI can map it to an exit code and a machine-readable error kind.
"""


class DiracSeaError(Exception):
    """Base class for all package errors."""

    kind = "error"


class InvalidParameter(DiracSeaError, ValueError):
    """A constructor or operation argument violates its contract."""

    kind = "invalid_parameter"


class DomainError(DiracSeaError, ValueError):
    """Evaluation requested outside the conformal-time domain."""

    kind = "domain_error"


class IntegrationFailure(DiracSeaError, RuntimeError):
    """The adaptive stepper could not complete (underflow, non-finite state)."""

    kind = "integration_failure"

    def __init__(self, message, t=None, diagnostic=None):
        super().__init__(message)
        self.t = t
        self.diagnostic = diagnostic


class ConvergenceFailure(DiracSeaError, RuntimeError):
    """An iterative tolerance target was not reached within its cap."""

    kind = "convergence_failure"


class DegenerateSignature(DiracSeaError, RuntimeError):
    """The signature operator has an eigenvalue at or near zero.

    The spectral split into positive and negative subspaces is unstable
    there, so the projector construction refuses to pick a branch.
    Carries both eigenvalues for diagnostics.
    """

    kind = "degenerate_signature"

    def __init__(self, mu_minus, mu_plus, threshold):
        super().__init__(
            f"signature eigenvalues ({mu_minus:.3e}, {mu_plus:.3e}) within "
            f"degeneracy threshold {threshold:.3e}"
        )
        self.mu_minus = mu_minus
        self.mu_plus = mu_plus
        self.threshold = threshold


class DegenerateFrame(DiracSeaError, RuntimeError):
    """Instantaneous frequency vanished; the diagonalizing frame is undefined."""

    kind = "degenerate_frame"


class DegenerateFamily(DiracSeaError, RuntimeError):
    """A solution family has a (numerically) rank-deficient Gram matrix."""

    kind = "degenerate_family"


class ConventionMismatch(DiracSeaError, RuntimeError):
    """Trace-formula and closed-form rotation observables disagree (piecewise R).

    This should never fire; it guards the hard-wired orientation of the
    rotation generator.
    """

    kind = "convention_mismatch"
