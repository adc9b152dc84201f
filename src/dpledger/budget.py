"""Privacy budget accounting for one data provider on one channel ledger.

Every ε means the decimal value its float prints as (``repr``), so a
threshold can be spent down to exactly zero and no spend sequence can
push the accumulated total past it. The accountant keeps its balance as
an exact ``decimal.Decimal`` and subtracts in ``_EXACT``, a 700-digit
context that traps ``Inexact``: every finite float's repr is a multiple
of 10**-340 below 10**309, and so is any balance built from such values,
so no subtraction ever needs to round, and the trap would raise if one
did. Floats appear only at the API surface.

``exact`` is the public rational view of the same decimal value;
``allocate_equal`` uses it. Both views are memoized: the ε values of a run
repeat (a fixed schedule has one), so each is parsed once.

The event log is kept as columns, not as one record per event: a run logs
an event per query, and columns add no object for the garbage collector
to track. ``events`` builds the ``SpendRecord`` rows when it is read.
"""

from __future__ import annotations

import functools
import math
from array import array
from decimal import Context, Decimal, Inexact
from fractions import Fraction
from typing import List, NamedTuple

from .codec import conforms
from .errors import BudgetExhausted, ConfigInvalid, NonPositiveEpsilon, ZeroQueries


# Balance arithmetic: wide enough that no difference of float reprs rounds.
_EXACT = Context(prec=700, traps=[Inexact])


def _check_threshold(epsilon_t: float) -> None:
    """Raise ``ConfigInvalid`` unless ``epsilon_t`` is a positive finite real
    (a bool is not one, as in ``codec``)."""
    if not (conforms(epsilon_t, float) and epsilon_t > 0):
        raise ConfigInvalid(f"epsilon_t {epsilon_t!r} must be a positive finite number")


@functools.lru_cache(maxsize=4096)
def exact(value: float) -> Fraction:
    """Decimal-value interpretation of a float (the number repr prints)."""
    return Fraction(str(float(value)))


@functools.lru_cache(maxsize=4096)
def _decimal(value: float) -> Decimal:
    """The same decimal value as ``exact(value)``, as a ``Decimal``; memoized
    like ``exact``."""
    return Decimal(repr(float(value)))


class SpendRecord(NamedTuple):
    """One accounting event. Reused rows log the allocation without spending it."""

    query_id: str
    requester_id: str
    epsilon_f: float
    epsilon_rem: float
    reused: bool


class BudgetAccountant:
    """Tracks spending of the privacy budget against a fixed threshold.

    Owned by one peer process and mutated only inside its serialized
    chaincode execution; the balances it hands out are plain floats.
    ``epsilon_rem`` is the float nearest the exact balance, kept up to
    date by each spend.

    Args:
        epsilon_t: maximum cumulative budget this provider will ever
            spend on the ledger's data.
    """

    def __init__(self, epsilon_t: float):
        _check_threshold(epsilon_t)
        self._epsilon_t = self._epsilon_rem = float(epsilon_t)
        self._threshold = self._rem = _decimal(epsilon_t)
        # The event log, one column per ``SpendRecord`` field.
        self._query_ids: List[str] = []
        self._requester_ids: List[str] = []
        self._epsilon_f = array("d")
        self._epsilon_rem_log = array("d")
        self._reused = bytearray()

    @property
    def epsilon_t(self) -> float:
        return self._epsilon_t

    @property
    def epsilon_rem(self) -> float:
        return self._epsilon_rem

    @property
    def events(self) -> List[SpendRecord]:
        """Every accounting event in order, built from the log's columns."""
        return [SpendRecord(qid, rid, eps_f, eps_rem, bool(reused))
                for qid, rid, eps_f, eps_rem, reused in zip(
                    self._query_ids, self._requester_ids, self._epsilon_f,
                    self._epsilon_rem_log, self._reused)]

    @property
    def spend_log(self) -> List[SpendRecord]:
        """Only the rows that actually consumed budget."""
        return [e for e in self.events if not e.reused]

    def _log(self, query_id: str, requester_id: str, epsilon_f: float,
             reused: bool) -> None:
        self._query_ids.append(query_id)
        self._requester_ids.append(requester_id)
        self._epsilon_f.append(epsilon_f)
        self._epsilon_rem_log.append(self._epsilon_rem)
        self._reused.append(reused)

    def try_spend(self, epsilon_f: float, query_id: str, requester_id: str) -> None:
        """Spend epsilon_f or raise BudgetExhausted leaving state untouched.
        An ``epsilon_f`` that is not a positive finite real (a bool is not
        one) is ``NonPositiveEpsilon``; a float is checked by one comparison."""
        if (type(epsilon_f) is not float and not conforms(epsilon_f, float)
                or not 0 < epsilon_f < math.inf):
            raise NonPositiveEpsilon(f"epsilon_f must be positive and finite, got {epsilon_f!r}")
        need = _decimal(epsilon_f)
        if need > self._rem:
            raise BudgetExhausted(
                f"remaining budget {self._epsilon_rem} cannot cover {epsilon_f}"
            )
        self._rem = _EXACT.subtract(self._rem, need)
        self._epsilon_rem = float(self._rem)
        self._log(query_id, requester_id, epsilon_f, False)

    def record_reuse(self, query_id: str, requester_id: str, epsilon_f: float) -> None:
        """Log a cache-served answer; balances do not move."""
        self._log(query_id, requester_id, epsilon_f, True)

    def accumulated(self) -> float:
        """Total budget spent so far; equals epsilon_t - epsilon_rem."""
        return float(self.accumulated_exact())

    def accumulated_exact(self) -> Fraction:
        return Fraction(_EXACT.subtract(self._threshold, self._rem))

    def remaining_exact(self) -> Fraction:
        return Fraction(self._rem)


def allocate_equal(epsilon_t: float, n_queries: int) -> float:
    """Equal split of the threshold across a known query count.

    The share is rounded toward zero (at most a few ulps) so that
    n_queries successive spends always fit inside the threshold under
    exact accounting. ``n_queries`` must be an integer (a bool is not
    one, as in ``codec``), or ``ConfigInvalid`` is raised.
    """
    if not conforms(n_queries, int):
        raise ConfigInvalid(f"n_queries must be an integer, got {n_queries!r}")
    if n_queries < 1:
        raise ZeroQueries(f"n_queries must be >= 1, got {n_queries!r}")
    _check_threshold(epsilon_t)
    share = epsilon_t / n_queries
    target = exact(epsilon_t)
    while exact(share) * n_queries > target:
        share = math.nextafter(share, 0.0)
    return share
