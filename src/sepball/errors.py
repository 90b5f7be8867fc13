"""Exception types shared across the package."""


class SepballError(ValueError):
    """Base class for all input and invariant violations raised here."""


class DimensionError(SepballError):
    """Shapes or block dimensions do not match what an operation needs."""


class SizeCapError(SepballError):
    """A product dimension exceeds the configured dense-arithmetic cap."""


class HermiticityError(SepballError):
    """A matrix required to be Hermitian fails the symmetry check."""


class PositivityError(SepballError):
    """A matrix or element required to be positive semidefinite is not."""


class LinearityError(SepballError):
    """A callable expected to be linear fails the spot check."""


class ConvergenceError(SepballError):
    """An iterative kernel hit its iteration limit without converging."""


class SchemaError(SepballError):
    """A JSON payload does not match the documented schema.

    The message names the offending path inside the document.
    """
