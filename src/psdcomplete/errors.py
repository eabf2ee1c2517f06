"""Exception types shared across the package."""


class PsdCompleteError(Exception):
    """Base class for all package-specific errors."""


class InputError(PsdCompleteError):
    """Malformed or out-of-contract input data (bad JSON, bad schema, bad values)."""

    def __init__(self, message, location=None, code="value"):
        super().__init__(message)
        self.message = message
        self.location = location
        self.code = code


class NotSymmetric(PsdCompleteError):
    """Matrix is not symmetric within tolerance."""


class NotPSD(PsdCompleteError):
    """Matrix has an eigenvalue below the allowed negative tolerance."""


class GramMismatch(PsdCompleteError):
    """Two vector configurations do not share the same Gram matrix."""


class NotChordal(PsdCompleteError):
    """Operation requires a chordal pattern graph."""


class NotPartiallyPositive(PsdCompleteError):
    """Some fully specified clique block is not positive semidefinite."""

    def __init__(self, message, clique=None, min_eig=None):
        super().__init__(message)
        self.clique = clique
        self.min_eig = min_eig


class PatternMismatch(PsdCompleteError):
    """Partial matrix data does not fit the pattern graph."""


class CertificateNotSupported(PsdCompleteError):
    """Certificate matrix has mass outside the pattern graph's edge slots."""


class NotEnoughPoints(PsdCompleteError):
    """Ray construction needs at least four points (k >= 2)."""


class DegenerateConfiguration(PsdCompleteError):
    """Point configuration violates the linear-general-position requirements."""


class InvalidCycleLength(PsdCompleteError):
    """Cycle constructions require length at least 4."""


class DegeneratePolygon(PsdCompleteError):
    """Vertex list does not describe a strictly convex lattice polygon."""


class IndexUndefined(PsdCompleteError):
    """Index formula undefined: too few boundary lattice points."""
