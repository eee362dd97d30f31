"""Exception hierarchy shared by every module.

Three coarse classes matter to callers (and to the CLI exit-code mapping):
bad inputs or violated preconditions, checks that ran and failed, and
work that was refused because it would not fit a budget.
"""

from __future__ import annotations


class QmdsError(Exception):
    """Base class. exit_code is what the CLI returns for this failure."""

    exit_code = 2


# ---------------------------------------------------------------------------
# field construction and arithmetic


class NonPrimeCharacteristic(QmdsError):
    pass


class FieldTooLarge(QmdsError):
    pass


class DivisionByZero(QmdsError, ZeroDivisionError):
    pass


class ZeroToNegativePower(QmdsError):
    pass


class NotInSubfield(QmdsError):
    pass


class ZeroInput(QmdsError):
    pass


# ---------------------------------------------------------------------------
# linear algebra


class SingularMatrix(QmdsError):
    pass


class DimensionMismatch(QmdsError):
    pass


# ---------------------------------------------------------------------------
# code construction


class DuplicatePoints(QmdsError):
    pass


class ZeroMultiplier(QmdsError):
    pass


class BadDimension(QmdsError):
    pass


class CongruenceViolated(QmdsError):
    pass


class DistanceOutOfRange(QmdsError):
    pass


class DimensionOutOfRange(QmdsError):
    pass


class SolverFailure(QmdsError):
    exit_code = 3


class MixedFields(QmdsError):
    pass


class LengthMismatch(QmdsError):
    pass


class RankDeficientMixer(QmdsError):
    pass


class EvenCharacteristic(QmdsError):
    pass


class HypothesisViolated(QmdsError):
    pass


class ParityMismatch(QmdsError):
    pass


# ---------------------------------------------------------------------------
# verification


class VerificationFailure(QmdsError):
    exit_code = 3


class NotDualContaining(VerificationFailure):
    pass


class NotSelfOrthogonal(VerificationFailure):
    pass


class NotMds(VerificationFailure):
    pass


class EnumerationTooLarge(QmdsError):
    pass


class WorkBudgetExceeded(QmdsError):
    pass


# ---------------------------------------------------------------------------
# serialization


class FileMalformed(QmdsError):
    exit_code = 4


class OutputUnwritable(QmdsError):
    pass


# ---------------------------------------------------------------------------
# command line


class UsageError(QmdsError):
    """A flag the CLI does not know, or a missing or malformed value."""
