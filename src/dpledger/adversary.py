"""Honest-but-curious attacks against the query interface.

Two threats are modeled. A linking attack subtracts full background
knowledge (every record except the target) from an observed SUM answer
to recover the target quantity. A composition attack collects responses
for the same queries from multiple channel members and averages them to
shrink the noise. Both are driver-side batch procedures used to measure
what an insider competitor can actually recover.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from .errors import BudgetExhausted, NoCommonQueries, PredicateMismatch
from .laplace import perturb
from .ledger import WorldState
from .transactions import (
    Aggregate,
    CategoryKey,
    PerturbedResponse,
    QueryTransaction,
    WriteTransaction,
    normalize,
)

DEFAULT_TOLERANCE = 5.0  # quantity units; 5% of QUANTITY_MAX, the SUM sensitivity


@dataclass(frozen=True)
class BackgroundKnowledge:
    """Everything the adversary knows: the full ledger minus its target,
    folded into a world state when the record is built."""

    state: WorldState
    target: Tuple[str, str, str]  # (customer_name, product_name, color)

    @classmethod
    def from_ledger(cls, records: Sequence[WriteTransaction],
                    target_index: int) -> "BackgroundKnowledge":
        target_tx = records[target_index]
        state = WorldState()
        state.apply_writes(tx for i, tx in enumerate(records) if i != target_index)
        return cls(state=state,
                   target=(target_tx.customer_name, target_tx.product_name, target_tx.color))


@dataclass(frozen=True)
class AttackReport:
    """What one attack run recovered, scored against the ground truth."""

    kind: str
    estimate: float
    true_value: float
    abs_error: float
    tolerance: float
    success: bool
    queries_consumed: int
    epsilon_observed: float
    details: dict = field(default_factory=dict)

    @classmethod
    def build(cls, kind: str, estimate: float, true_value: float, tolerance: float,
              queries_consumed: int, epsilon_observed: float,
              details: Optional[dict] = None) -> "AttackReport":
        err = abs(estimate - true_value)
        return cls(kind=kind, estimate=estimate, true_value=true_value,
                   abs_error=err, tolerance=tolerance, success=err <= tolerance,
                   queries_consumed=queries_consumed,
                   epsilon_observed=epsilon_observed, details=details or {})


def _covers_target(query: QueryTransaction, target: Tuple[str, str, str]) -> bool:
    key = query.key
    tgt = tuple(normalize(v) for v in target)
    for want, have in zip((key.customer_name, key.product_name, key.color), tgt):
        if want is not None and want != have:
            return False
    return True


def linking_attack(query: QueryTransaction, observed: float,
                   bk: BackgroundKnowledge, true_quantity: float,
                   tolerance: float = DEFAULT_TOLERANCE) -> AttackReport:
    """Difference attack: the observed SUM minus the known matching total.

    The estimate error is exactly the mechanism noise, so with noise
    disabled the target quantity is recovered exactly.
    """
    if not _covers_target(query, bk.target):
        raise PredicateMismatch(
            f"query category does not cover the target {bk.target!r}"
        )
    return AttackReport.build(
        kind="linking",
        estimate=observed - bk.state.answer(query.key),
        true_value=float(true_quantity),
        tolerance=tolerance,
        queries_consumed=1,
        epsilon_observed=0.0,
    )


def linking_trials(query: QueryTransaction, bk: BackgroundKnowledge,
                   true_quantity: float, epsilon: float,
                   rng: np.random.Generator, n_trials: int,
                   tolerance: float = DEFAULT_TOLERANCE) -> Tuple[float, AttackReport]:
    """Monte-Carlo calibration: success rate of single-response linking,
    and the first trial's report.

    Each trial perturbs the exact SUM afresh and runs the attack on that
    one answer; the returned rate should match the noise CDF at the
    tolerance, 1 - exp(-tolerance / scale).
    """
    exact_total = bk.state.answer(query.key) + float(true_quantity)
    successes = 0
    first = None
    for _ in range(n_trials):
        observed = perturb(exact_total, epsilon, Aggregate.SUM, rng)
        report = linking_attack(query, observed, bk, true_quantity, tolerance)
        successes += report.success
        if first is None:
            first = report
    return successes / n_trials, first


def composition_attack(answers_a: Mapping[CategoryKey, Sequence[float]],
                       answers_b: Mapping[CategoryKey, Sequence[float]],
                       repeats: int,
                       true_values: Mapping[CategoryKey, float],
                       epsilon_observed: float = 0.0) -> AttackReport:
    """Cross-member combination over the intersection of answered categories.

    Reports the variance shrink the combination achieved versus a single
    response. Against deterministic reuse every collected value per
    category is identical, so the sample variance is zero and combining
    refines nothing.
    """
    common = sorted(set(answers_a) & set(answers_b), key=lambda k: k.label())
    if not common:
        raise NoCommonQueries("no overlapping query categories between the members")

    per_key_values: Dict[CategoryKey, List[float]] = {
        k: list(answers_a[k]) + list(answers_b[k]) for k in common
    }
    estimates = {k: statistics.fmean(v) for k, v in per_key_values.items()}
    distinct_counts = {k: len(set(v)) for k, v in per_key_values.items()}

    mean_errors = [estimates[k] - true_values[k] for k in common]
    single_errors = [v - true_values[k] for k in common for v in per_key_values[k]]
    var_mean = statistics.fmean(e * e for e in mean_errors)
    var_single = statistics.fmean(e * e for e in single_errors)
    n_collected = sum(len(v) for v in per_key_values.values())

    key = common[0]
    within = statistics.fmean(
        statistics.pvariance(v) if len(v) > 1 else 0.0
        for v in per_key_values.values()
    )
    details = {
        "categories": len(common),
        "responses_per_category": len(per_key_values[key]),
        "max_distinct_values_per_category": max(distinct_counts.values()),
        "variance_single": var_single,
        "variance_mean": var_mean,
        "variance_ratio": var_mean / var_single if var_single > 0 else 0.0,
        "expected_ratio_independent_noise": 1.0 / (2 * repeats),
        "mean_within_category_variance": within,
        "mean_abs_error": statistics.fmean(abs(e) for e in mean_errors),
    }
    return AttackReport.build(
        kind="composition",
        estimate=estimates[key],
        true_value=float(true_values[key]),
        tolerance=DEFAULT_TOLERANCE,
        queries_consumed=n_collected,
        epsilon_observed=epsilon_observed,
        details=details,
    )


def repeated_query_averaging(ask: Callable[[], PerturbedResponse], n: int,
                             true_value: float) -> AttackReport:
    """Issue the same query n times and average whatever comes back.

    Against fresh noise the mean-estimate error shrinks like
    sqrt(2 * scale**2 / n); against budget reuse every answer is the
    first one, so repeating buys nothing. Stops early if the provider's
    budget runs out.
    """
    responses: List[PerturbedResponse] = []
    truncated = False
    for _ in range(n):
        try:
            responses.append(ask())
        except BudgetExhausted:
            truncated = True
            break
    if not responses:
        raise BudgetExhausted("provider budget was exhausted before any answer")

    values = [r.value for r in responses]
    # Each distinct answer once: a repeat served from the record is the
    # recorded response itself, named by the query that drew its noise.
    distinct = {r.query_id: r for r in responses}
    details = {
        "requested": n,
        "answered": len(values),
        "truncated_by_budget": truncated,
        "distinct_values": len(set(values)),
        "sample_std": statistics.pstdev(values) if len(values) > 1 else 0.0,
        "fresh_responses": len(distinct),
    }
    return AttackReport.build(
        kind="averaging",
        estimate=statistics.fmean(values),
        true_value=float(true_value),
        tolerance=DEFAULT_TOLERANCE,
        queries_consumed=len(values),
        epsilon_observed=sum(r.epsilon_used for r in distinct.values()),
        details=details,
    )
