"""Exception types shared across the package."""


class FeynlabError(Exception):
    """Base class for package specific failures."""


class DimensionError(FeynlabError, ValueError):
    """A weight, field or covector does not fit the ambient dimension."""


class ChartError(FeynlabError, ValueError):
    """A compactification chart is degenerate at the requested point."""


class ClassificationError(FeynlabError, ValueError):
    """A ray trace cannot be classified against the radial sets."""


class PoleError(FeynlabError, ValueError):
    """A weight line passes through an indicial root."""


class ZeroModeError(FeynlabError, ValueError):
    """A rotated kind's mode profile asked for at omega = 0 (real double pole)."""


class ResolutionError(FeynlabError, ValueError):
    """Quadrature or lattice resolution too coarse for the request."""


class StiffnessError(FeynlabError, RuntimeError):
    """Adaptive integration failed (step size underflow or solver abort)."""
