"""Exception types raised across the package."""


class WeylScopeError(Exception):
    """Base class for all errors raised by weylscope."""


class NoConvergenceError(WeylScopeError):
    """Eigenvalue iteration failed to converge."""


class DimensionMismatchError(WeylScopeError):
    """Operands have incompatible shapes."""


class SlowDecayError(WeylScopeError):
    """Integrand does not decay fast enough for the whole-line quadrature."""


class RankDeficientBoundaryError(WeylScopeError):
    """Stacked boundary maps fail the surjectivity requirement."""


class InconsistentBoundaryDataError(WeylScopeError):
    """Supplied adjoint-side boundary data cannot close the pairing identity."""


class LambdaInSpectrumError(WeylScopeError):
    """Requested spectral parameter sits (numerically) in the spectrum."""


class SampleInSpectrumError(WeylScopeError):
    """A sampling point is too close to the detected spectrum."""


class ContourHitsSpectrumError(WeylScopeError):
    """A contour node is too close to the detected spectrum."""


class UpperHalfPlaneError(WeylScopeError):
    """Spectral parameter lies in the closed upper half plane."""


class BadMuError(WeylScopeError):
    """Exponential sample point does not lie in the open lower half plane."""


class CoefficientSingularError(WeylScopeError):
    """Spectral parameter too close to the essential range of the multiplier."""


class ToleranceNotMetError(WeylScopeError):
    """Adaptive integrator could not meet the requested local tolerance."""


class AtEigenvalueError(WeylScopeError):
    """Boundary-condition denominator vanishes: the point is an eigenvalue."""


class ContourHitsEssranError(WeylScopeError):
    """Search-region boundary passes too close to the essential range."""


class GridHitsEssranWError(WeylScopeError):
    """Scan point too close to the essential range over the coupling support."""


class RealLambdaError(WeylScopeError):
    """Cauchy-type transform requested on the real axis."""


class PoleCollisionError(WeylScopeError):
    """Spectral parameter collides with a pole of the integrand."""


class DZeroError(WeylScopeError):
    """Perturbation determinant vanishes at the requested point."""


class BracketZeroError(WeylScopeError):
    """M-function bracket vanishes: the point is a pole of M."""


class ConstructionFailedError(WeylScopeError):
    """A model construction could not satisfy its normalization."""


class ModelUnknownError(WeylScopeError):
    """Model file names a type this package does not provide."""


class ConfigInvalidError(WeylScopeError):
    """Configuration or model file is malformed."""
