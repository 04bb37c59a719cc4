"""Exception hierarchy shared by all flipdist modules."""


class FlipdistError(Exception):
    """Base class for all domain errors raised by this package."""


class ParseError(FlipdistError):
    """A document could not be parsed; ``location`` names the offending spot."""

    def __init__(self, message: str, location: str = ""):
        self.location = location
        super().__init__(f"{location}: {message}" if location else message)


class InvariantViolation(FlipdistError):
    """A parsed or constructed value violates a structural invariant.

    ``violations`` lists each violated invariant, located.  Constructing an
    ``Instance`` raises it as ``invalid instance``; parsing a triangulation
    raises it as ``invalid triangulation``; ``require_valid``, the gate of
    count_pair, the morph, the audits, the flip searches and the readers of
    faces, raises it as ``{label} is not a valid triangulation``.
    """

    def __init__(self, message: str, violations: list[str] | None = None):
        self.violations = violations or []
        if self.violations:
            message = message + ": " + "; ".join(self.violations)
        super().__init__(message)


class InstanceMismatch(FlipdistError):
    """Two triangulations passed to a pairwise operation have different instances."""


class EdgeNotInTriangulation(FlipdistError):
    pass


class NotFlippable(FlipdistError):
    """The requested edge is a border edge or its quadrilateral is not strictly convex."""


class NotATriangulation(FlipdistError):
    """``Triangulation.key`` found an edge that is not an admissible pair."""


class AlreadyEqual(FlipdistError):
    """Both triangulations are identical; there is nothing to reduce."""


class LemmaViolation(FlipdistError):
    """No maximal edge admits an intersection-reducing flip.

    This is a falsifiable runtime check of the theory the morph relies on;
    it is never expected to trigger on valid inputs.
    """


class GraphTooLarge(FlipdistError):
    pass


class InstanceTooLarge(FlipdistError):
    pass


class InfeasibleSpec(FlipdistError):
    """A generator spec cannot be satisfied (e.g. not enough points for holes)."""
