"""Exception hierarchy with stable machine-readable codes.

Every error that can escape a public operation carries a ``code`` string.
Callers and tests match on these codes rather than on messages, so a code
is stable once published and must not be renamed.

A malformed argument (a wrong type, a bool where a number is meant, an
order out of range) raises :class:`DomainError`, code ``domain-error``,
through the input contract stated in :mod:`qal.rationals`.
"""


class QalError(Exception):
    code = "error"


class QalSyntaxError(QalError):
    """Parse failure with a 0-based character offset into the input."""

    code = "syntax-error"

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at offset {position})")
        self.position = position


class DomainError(QalError):
    code = "domain-error"


class CertificationError(QalError, ArithmeticError):
    code = "certification-error"


class UndecidableAtCap(CertificationError):
    """Interval arithmetic could not separate the compared quantities at
    the maximum working precision."""

    code = "undecidable-at-cap"


class PrecisionFailure(CertificationError):
    """A certified bound could not be established at the precision cap."""

    code = "precision-failure"


class UnsupportedSequenceError(QalError):
    code = "unsupported-sequence"


class NonMonicDivisorError(QalError):
    code = "non-monic-divisor"


class ArityMismatchError(QalError):
    code = "arity-mismatch"


class ChainDegenerationError(QalError):
    code = "chain-degeneration"


class SelectionFailure(QalError):
    code = "selection-failure"


class ExtensionFailure(QalError):
    code = "extension-failure"


class TruncationInsufficient(QalError):
    code = "truncation-insufficient"


class ExhaustedTrials(QalError):
    code = "exhausted-trials"


class InconclusiveInput(QalError):
    code = "inconclusive-input"


class ZeroPolynomialError(QalError):
    code = "zero-polynomial"
