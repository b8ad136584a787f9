"""Exception and warning types shared across the package."""


class EquiauditError(Exception):
    """Base class for all package-specific failures."""


class GeometryMismatchError(EquiauditError):
    """Two grids that must share spacing/extent do not."""


class SingularMapError(EquiauditError):
    """A 2x2 map is singular (or numerically indistinguishable from singular)."""


class DomainFitError(EquiauditError):
    """A computation needs more domain than the grid provides."""


class TransformClassError(EquiauditError):
    """A map does not belong to the class an operation requires."""


class NoCounterexampleError(EquiauditError):
    """The requested counterexample does not exist (e.g. identity map)."""


class ConstantFeatureError(EquiauditError):
    """The audited feature channel is one constant field on the whole corpus."""


class FormatError(EquiauditError):
    """A file does not parse as the format it claims to be."""


class InvalidModelError(FormatError):
    """A model description violates the model JSON schema."""


class ResolutionWarning(UserWarning):
    """A requested length scale is too close to the grid spacing to resolve."""
