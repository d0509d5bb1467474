"""Exceptions shared across the package.

Input errors (bad documents, violated preconditions) derive from InputError;
resource limits derive from ResourceError. The CLI maps InputError to exit
code 2, ResourceError to exit code 3 and any other OddsigError, such as
InternalInconsistency, to exit code 1.
"""


class OddsigError(Exception):
    pass


class InputError(OddsigError):
    pass


class ResourceError(OddsigError):
    pass


class InternalInconsistency(OddsigError):
    """A computed invariant contradicts itself; a defect, not bad input."""


# exact arithmetic
class OrderMismatch(InputError):
    pass


class NotASubfield(InputError):
    pass


class InvalidExponent(InputError):
    pass


# polynomials
class VariableCountMismatch(InputError):
    pass


class ZeroPolynomial(InputError):
    pass


class NotSquarefree(InputError):
    pass


# projective maps and groups
class ScalarMap(InputError):
    pass


class NotAnAutomorphism(InputError):
    pass


class NotAnIsomorphism(InputError):
    pass


class BoundExceeded(ResourceError):
    pass


# ramification bookkeeping: the Riemann-Hurwitz guards of ramify.signature
# run after the curve and the generators are verified, so a failed guard is
# a defect, not bad input
class NonIntegerBranchCount(InternalInconsistency):
    pass


class NonIntegerGenus(InternalInconsistency):
    pass


class NegativeGenus(InternalInconsistency):
    pass


class NonIntegerCount(InputError):
    pass


class GenusTooSmall(InputError):
    pass


class ShapeViolation(InputError):
    pass


class PropertyViolation(InputError):
    pass


class HypothesisViolation(InputError):
    pass


# descent
class DegenerateTriple(InputError):
    pass


class ImpossibleCase(InputError):
    pass


class CocycleFailure(InternalInconsistency):
    pass


class ImageTooLarge(InputError):
    pass


# serialization
class ParseError(InputError):
    pass


class UsageError(InputError):
    pass


class SchemaError(InputError):
    pass
