"""Exception types shared across the package."""


class NcphaseError(Exception):
    """Base class for all package-specific failures."""


class SingularOmega(NcphaseError):
    """Omega is singular (presymplectic); det_psi is what `regularity` refused."""

    def __init__(self, message, det_psi=None):
        super().__init__(message)
        self.det_psi = det_psi


class InconsistentSystem(NcphaseError):
    """Constraint chain admits no consistent dynamics anywhere."""

    def __init__(self, message, chain=None):
        super().__init__(message)
        self.chain = chain


class OffConstraint(NcphaseError):
    """Initial state violates the constraint manifold beyond tolerance."""


class StepRejected(NcphaseError):
    """Implicit step solve failed; the time step is too large for the spectrum."""

    def __init__(self, message, suggested_dt=None):
        super().__init__(message)
        self.suggested_dt = suggested_dt
