"""Exception hierarchy shared by every kcorr module.

Any error may carry a position in a session file.  Code that reads text
raises with a ``column`` at most; only ``session.parse_session`` and
``cli.run_session`` know source lines, and re-raise with the ``line`` added.
"""


class KcorrError(Exception):
    """Base class for all errors raised by this package.

    ``detail`` is the bare message; with a line the error reads
    ``line L, col C: detail``, or ``line L: detail`` without a column.
    """

    def __init__(self, detail="", line=None, column=None):
        self.detail = detail
        self.line = line
        self.column = column
        if line is not None:
            where = f"line {line}" if column is None else f"line {line}, col {column}"
            detail = f"{where}: {detail}"
        super().__init__(detail)


class AmbientMismatch(KcorrError):
    """Operands live over different variable lists, fields or monomial orders."""


class FieldMismatch(KcorrError):
    """Two constructions use different coefficient fields."""


class UnknownVariable(KcorrError):
    """An expression mentions a variable outside its ambient."""


class InvalidField(KcorrError):
    """Bad field specification (non-prime modulus and the like)."""


class NotWellDefined(KcorrError):
    """A variety morphism does not kill a target relation."""


class InvalidArity(KcorrError):
    """A construction got a size parameter outside its allowed range."""


class ShapeError(KcorrError):
    """Matrix or block dimensions do not fit together."""


class InvalidObject(KcorrError):
    """A correspondence object violates one of its defining laws."""


class InvalidMorphism(KcorrError):
    """A matrix fails the corner or intertwining constraints."""


class InvalidCertificate(KcorrError):
    """An isomorphism certificate whose round trips are not identities."""


class InternalLawViolation(KcorrError):
    """A derived value failed a law the theory guarantees; always a bug."""


class NotIntegral(KcorrError):
    """Rank over the fraction field needs an integral base variety."""


class UnknownObject(KcorrError):
    """A ledger query mentions an object that was never registered."""


class BudgetExceeded(KcorrError):
    """An input would make a result larger than a fixed budget allows."""


class GenerationFailed(KcorrError):
    """The randomized generator exhausted its resampling budget."""


class ParseError(KcorrError):
    """Syntax error in a polynomial literal or session file."""


class ResolveError(KcorrError):
    """A session statement references an undeclared name."""
