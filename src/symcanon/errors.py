"""Exception taxonomy shared by all modules.

Contract violations and resource exhaustion are kept apart because the
command line maps them to different exit codes (2 and 3 respectively).
"""

from __future__ import annotations


class SymcanonError(Exception):
    """Base class for all errors raised by this package."""


class ContractError(SymcanonError):
    """A precondition or structural invariant was violated by the caller."""


class RingMismatchError(ContractError):
    """Operands belong to different polynomial rings."""


class ParseError(ContractError):
    """Polynomial text could not be parsed; carries the offending position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class DegreeOverflowError(ContractError):
    """An exponent or total degree exceeded the configured bound."""


class BudgetExceededError(SymcanonError):
    """A fixed budget ran out: the Groebner pair degree or pair count
    (``ideals.DEGREE_BUDGET``, ``ideals.PAIR_BUDGET``), the base-change
    trials (``basechange.TRIAL_BUDGET``) or a search's own guard.

    This signals resource exhaustion, never a mathematical conclusion.
    """
