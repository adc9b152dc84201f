"""The privacy-preserving query module executed by peers.

A query's body is its category: its aggregate and normalized attributes.
On a 100% category match the previously recorded answer itself is returned
and no new budget is spent; its response still names the query that drew
its noise. Otherwise the budget is charged, the query is evaluated on the
original ledger data, and the freshly perturbed answer is held as pending
until the block carrying it, together with the remaining budget, is
committed to the ledger or sent to audit.
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from .budget import BudgetAccountant
from .laplace import check_epsilon, perturb
from .ledger import WorldState
from .transactions import (
    CategoryKey,
    PerturbedResponse,
    QueryRecord,
    QueryTransaction,
)


def evaluate_exact(q: QueryTransaction, state: WorldState) -> float:
    """Evaluate the query on the original ledger data, without noise."""
    return state.answer(q.key)


class ChaincodeEngine:
    """The query chaincode of one channel.

    Answers against the committed world state it is handed plus
    ``pending``: the fresh answer per category that is endorsed but not
    yet committed (kept only with reuse enabled, the one mode that serves
    repeats). ``settle`` drops an answer from ``pending`` once its block is
    committed or sent to audit.

    Instrumented with probe/evaluation/noise counters so the linear-cost
    claim can be asserted, not assumed. reuse_enabled=False disables the
    cached-answer path (fresh noise for every query).
    """

    def __init__(self, *, reuse_enabled: bool = True):
        self.reuse_enabled = reuse_enabled
        self.probe_count = 0
        self.evaluation_count = 0
        self.noise_draws = 0
        self.pending: Dict[CategoryKey, QueryRecord] = {}

    def answer_query(self, q: QueryTransaction, state: WorldState,
                     acct: BudgetAccountant, eps_f: float,
                     rng: np.random.Generator, *, query_id: str) -> QueryRecord:
        """Serve one query and return the recorded answer behind it: the
        recorded one for a repeat, pending or committed, or a fresh one.

        ``q`` must have passed ``validate_query`` (``Network.submit`` checks it
        first); ``query_id`` is its tx id. ``state`` is only read.
        A pending answer is preferred to a committed one, and ``pending`` is
        probed only when it holds answers: a repeat on a quiet overlay hashes
        its key once, in ``state``. A reuse is recorded by the accountant
        alone. ``eps_f`` is checked first, so a bad ε is neither spent nor
        logged as a reuse.
        On the fresh path the budget is charged before the query is
        evaluated; a BudgetExhausted propagates with ``pending`` untouched.
        A fresh answer's response names ``query_id``, and with reuse
        enabled the answer is added to ``pending``.
        """
        check_epsilon(eps_f)
        key = q.key

        if self.reuse_enabled:
            self.probe_count += 1
            cached = (self.pending and self.pending.get(key)) or state.lookup(key)
            if cached is not None:
                acct.record_reuse(query_id, q.requester_id, eps_f)
                return cached

        acct.try_spend(eps_f, query_id, q.requester_id)
        self.evaluation_count += 1
        exact_value = evaluate_exact(q, state)
        noisy = perturb(exact_value, eps_f, key.aggregate, rng)
        self.noise_draws += 1
        record = QueryRecord(key, eps_f, PerturbedResponse(noisy, eps_f, False, query_id))
        if self.reuse_enabled:
            self.pending[key] = record
        return record

    def settle(self, record: QueryRecord) -> None:
        """Drop ``record`` from ``pending`` if it is still the pending answer
        of its category; its block has been committed or sent to audit."""
        if self.pending.get(record.key) is record:
            del self.pending[record.key]
