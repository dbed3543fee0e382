"""Exception types shared across the workbench."""


class ConfigurationError(ValueError):
    """Invalid configuration document, problem specification, or domain name."""


class MeshValidityError(ValueError):
    """Mesh violates a structural requirement (degenerate or inconsistent)."""


class SolverError(RuntimeError):
    """Linear solver failed or was handed an unsuitable system."""


class NumericalEstimateError(RuntimeError):
    """An iterative numerical estimate did not converge."""


class IdentityViolationError(RuntimeError):
    """A quantity that must vanish (or match) numerically did not."""
