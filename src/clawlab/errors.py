"""Exception types shared across the package."""


class ClawError(Exception):
    """Base class for all clawlab errors."""


class UnknownFlux(ClawError):
    """Requested catalog name is not registered."""


class NonFiniteFlux(ClawError):
    """Flux evaluation produced NaN or infinity on a sample set."""


class SingularPoint(ClawError):
    """Spatial derivative requested exactly at a declared singular point."""


class QuadratureNonConvergent(ClawError):
    """Adaptive quadrature hit its depth limit before reaching tolerance."""


class LipschitzNonConvergent(ClawError):
    """Sampled Lipschitz estimates kept changing as the grid was refined."""


class BadWindow(ClawError):
    """A test function's window or width is degenerate: not 0 < rho < tau <
    t_max, a width that is not positive (or NaN), or a center that is not
    finite."""


class CFLViolation(ClawError):
    """Computed time step is non-positive or non-finite."""


class BlowUp(ClawError):
    """Numerical solution exceeded its a-priori bound."""


class GridMismatch(ClawError):
    """Two fields do not share grid geometry or stored time levels."""


class FieldFileError(ClawError):
    """A field file is missing, unreadable, or not a complete slab file."""


class SupportExceedsDomain(ClawError):
    """Test-function support is not contained in the field's space-time box."""


class MissingTimeLevels(ClawError):
    """Stored time levels do not cover the requested quadrature window."""


class EmptyCone(ClawError):
    """A cone or uniqueness ball holds no cell centre at the first compared
    level, where a mass of zero would pass whatever the data."""


class SampleNearShock(ClawError):
    """A diagnostic sample point landed on a discontinuity cell."""


class ConfigError(ClawError):
    """Experiment configuration is malformed; message carries line/key context."""
