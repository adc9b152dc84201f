"""The privacy-preserving query module executed by peers.

A query is categorized by its aggregate and normalized attributes. On a
100% category match the previously recorded answer is returned and no
new budget is spent; otherwise the budget is charged, the query is
evaluated on the original ledger data, and the freshly perturbed response
is held as pending until the block carrying it, together with the
remaining budget, is committed to the ledger or sent to audit.
"""

from __future__ import annotations

import itertools
from typing import Dict, Optional

import numpy as np

from .budget import BudgetAccountant
from .errors import UnsupportedAggregate
from .laplace import check_epsilon, perturb
from .ledger import WorldState
from .transactions import (
    Aggregate,
    CategoryKey,
    PerturbedResponse,
    QueryRecord,
    QueryTransaction,
)


def categorize(q: QueryTransaction) -> CategoryKey:
    """Deterministic cache key: aggregate plus trimmed, case-folded attributes."""
    if not isinstance(q.aggregate, Aggregate):
        raise UnsupportedAggregate(f"unsupported aggregate {q.aggregate!r}")
    pred = q.predicate.normalized()
    return CategoryKey(q.aggregate, pred.customer_name, pred.product_name, pred.color)


def evaluate_exact(q: QueryTransaction, state: WorldState,
                   key: Optional[CategoryKey] = None) -> float:
    """Evaluate the query on the original ledger data, without noise.

    ``key`` is the query's category when the caller already has it.
    """
    return state.answer(key if key is not None else categorize(q))


class ChaincodeEngine:
    """The query chaincode of one channel.

    Answers against the committed world state it is handed plus
    ``pending``: the fresh answer per category that is endorsed but not
    yet committed (kept only with reuse enabled, the one mode that serves
    repeats). ``settle`` drops an answer from ``pending`` once its block is
    committed or sent to audit. ``last_record`` is the recorded answer
    behind the response of the last call that returned, so the caller need
    not categorize the query again.

    Category keys are interned per query shape, ``(aggregate, predicate)``:
    equal queries get the one key object, whose encoding is computed once.

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
        self.last_record: Optional[QueryRecord] = None
        self._query_ids = itertools.count()
        self._keys: Dict[tuple, CategoryKey] = {}

    def category(self, q: QueryTransaction) -> CategoryKey:
        """``categorize(q)``, the same object for every query of its shape."""
        shape = (q.aggregate, q.predicate)
        key = self._keys.get(shape)
        if key is None:
            key = self._keys[shape] = categorize(q)
        return key

    def answer_query(self, q: QueryTransaction, state: WorldState,
                     acct: BudgetAccountant, eps_f: float,
                     rng: np.random.Generator, *,
                     query_id: Optional[str] = None) -> PerturbedResponse:
        """Serve one query: reuse a recorded answer or perturb a fresh one.

        ``q`` must have passed ``validate_query`` (``Network`` checks it at
        endorsement); it is categorized once here. ``state`` is only read.
        A pending answer is preferred to a committed one, and a reuse is
        recorded by the accountant alone. ``eps_f`` is checked first, so a
        bad ε is neither spent nor logged as a reuse.
        On the fresh path the budget is charged before the query is
        evaluated; a BudgetExhausted propagates with ``pending`` untouched.
        With reuse enabled the fresh answer is added to ``pending``.
        """
        check_epsilon(eps_f)
        key = self.category(q)
        qid = query_id if query_id is not None else f"q{next(self._query_ids)}"

        if self.reuse_enabled:
            self.probe_count += 1
            cached = self.pending.get(key) or state.lookup(key)
            if cached is not None:
                acct.record_reuse(qid, q.requester_id, eps_f)
                self.last_record = cached
                return PerturbedResponse(
                    value=cached.response.value,
                    epsilon_used=cached.epsilon_spent,
                    reused=True,
                    query_id=qid,
                )

        acct.try_spend(eps_f, qid, q.requester_id)
        self.evaluation_count += 1
        exact_value = evaluate_exact(q, state, key)
        noisy = perturb(exact_value, eps_f, q.aggregate, rng)
        self.noise_draws += 1
        resp = PerturbedResponse(noisy, eps_f, False, qid)
        self.last_record = QueryRecord(key, eps_f, resp)
        if self.reuse_enabled:
            self.pending[key] = self.last_record
        return resp

    def settle(self, record: QueryRecord) -> None:
        """Drop ``record`` from ``pending`` if it is still the pending answer
        of its category; its block has been committed or sent to audit."""
        if self.pending.get(record.key) is record:
            del self.pending[record.key]
