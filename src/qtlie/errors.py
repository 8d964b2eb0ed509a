"""Exception types shared across the package."""


class QtlieError(Exception):
    """Base class for all package-specific errors."""


class ParseError(QtlieError):
    """Malformed textual input (spec files, element grammar, serialized numbers)."""


class MalformedBasisKey(QtlieError):
    """A basis symbol violates the invariants of its algebra."""


class ExponentNotInR(QtlieError):
    """An exponent was required to lie in the central sublattice R but does not."""


class NotGeneric(QtlieError):
    """A vector required to have Q-linearly independent entries does not."""


class InvalidModuleData(QtlieError):
    """Generator matrices do not satisfy the required module structure."""


class InvalidRepresentation(QtlieError):
    """A graded representation fails its structural or bracket checks."""


class RelationViolated(QtlieError):
    """Extracted coefficients do not satisfy the defining bracket relations."""


class DegreeBoundViolated(QtlieError):
    """An operator family is not polynomial of the asserted total degree."""


class ConstantTermMismatch(QtlieError):
    """The constant term of an operator family differs from the forced scalar."""


class NotIrreducible(QtlieError):
    """An operation required an irreducible module but got a reducible one."""


class InvariantViolated(QtlieError):
    """An identity that holds by construction failed: the input or the library is inconsistent."""


class DimensionMismatch(QtlieError):
    """Two objects that must have matching shapes do not."""
