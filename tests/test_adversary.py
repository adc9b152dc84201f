import math
import statistics

import numpy as np
import pytest

from dpledger import (
    Aggregate,
    AttackReport,
    BackgroundKnowledge,
    NoCommonQueries,
    PredicateMismatch,
    composition_attack,
    linking_attack,
    repeated_query_averaging,
)
from dpledger import bench
from dpledger.adversary import linking_trials
from dpledger.bench import (
    run_averaging_attack,
    run_composition_attack,
    run_linking_attack,
)
from dpledger.errors import BudgetExhausted
from dpledger.transactions import CategoryKey, PerturbedResponse

from conftest import make_query, make_write


def _ledger(n=40, seed=5):
    gen = np.random.default_rng(seed)
    return [
        make_write(
            customer=("Bob", "Claire", "David")[int(gen.integers(3))],
            product=("bolt", "valve")[int(gen.integers(2))],
            color=("red", "blue")[int(gen.integers(2))],
            quantity=int(gen.integers(1, 101)),
        )
        for _ in range(n)
    ]


# ---------------------------------------------------------------------------
# linking

def test_linking_with_noise_disabled_recovers_target_exactly():
    records = _ledger()
    bk = BackgroundKnowledge.from_ledger(records, target_index=7)
    true_qty = records[7].quantity
    q = make_query(Aggregate.SUM)
    exact_response = float(sum(tx.quantity for tx in records))
    report = linking_attack(q, exact_response, bk, true_qty, tolerance=0.0)
    assert report.success
    assert report.abs_error == 0.0
    assert report.estimate == true_qty


def test_linking_rejects_noncovering_predicate():
    records = _ledger()
    target = 0
    while records[target].product_name == "valve":
        target += 1
    bk = BackgroundKnowledge.from_ledger(records, target_index=target)
    q = make_query(Aggregate.SUM, product="valve")
    with pytest.raises(PredicateMismatch):
        linking_attack(q, 100.0, bk, records[target].quantity)


def test_linking_error_follows_noise_cdf(rng):
    records = _ledger()
    bk = BackgroundKnowledge.from_ledger(records, target_index=3)
    q = make_query(Aggregate.SUM)
    tolerance = 20.0
    lam = 100.0
    rate, sample = linking_trials(q, bk, records[3].quantity, 1.0, rng,
                                  n_trials=4000, tolerance=tolerance)
    expected = 1.0 - math.exp(-tolerance / lam)
    assert abs(rate - expected) <= 0.03
    assert all(r.kind == "linking" for r in sample)


def test_success_flag_reflects_tolerance():
    report = AttackReport.build("linking", estimate=52.0, true_value=50.0,
                                tolerance=5.0, queries_consumed=1,
                                epsilon_observed=1.0)
    assert report.success and report.abs_error == 2.0
    tight = AttackReport.build("linking", estimate=52.0, true_value=50.0,
                               tolerance=1.0, queries_consumed=1,
                               epsilon_observed=1.0)
    assert not tight.success


# ---------------------------------------------------------------------------
# composition

def _key(color):
    return CategoryKey(Aggregate.SUM, None, None, color)


def test_composition_requires_common_categories():
    with pytest.raises(NoCommonQueries):
        composition_attack({_key("red"): [1.0]}, {_key("blue"): [2.0]},
                           repeats=1, true_values={})


def test_composition_averaging_gains_on_independent_noise(rng):
    lam, k, n_cat = 100.0, 25, 150
    truths = {_key(f"c{i}"): 1000.0 for i in range(n_cat)}
    answers_a = {}
    answers_b = {}
    for key, truth in truths.items():
        noise = rng.laplace(0.0, lam, size=2 * k)
        answers_a[key] = list(truth + noise[:k])
        answers_b[key] = list(truth + noise[k:])
    report = composition_attack(answers_a, answers_b, k, truths)
    ratio = report.details["variance_ratio"]
    assert abs(ratio * 2 * k - 1.0) < 0.5
    assert report.details["max_distinct_values_per_category"] == 2 * k


def test_composition_gains_nothing_on_deterministic_reuse():
    truths = {_key(f"c{i}"): 500.0 for i in range(20)}
    fixed = {key: [truth + 3.25] * 10 for key, truth in truths.items()}
    report = composition_attack(fixed, fixed, repeats=10, true_values=truths)
    assert report.details["max_distinct_values_per_category"] == 1
    assert report.details["mean_within_category_variance"] == 0.0
    assert report.details["variance_ratio"] == pytest.approx(1.0)
    assert report.abs_error == pytest.approx(3.25)



def test_single_peer_single_repeat_degenerates_to_one_observation():
    truths = {_key("red"): 100.0}
    answers = {_key("red"): [103.0]}
    report = composition_attack(answers, answers, repeats=1, true_values=truths)
    assert report.estimate == 103.0
    assert report.abs_error == 3.0


# ---------------------------------------------------------------------------
# repeated-query averaging

def _asker(values):
    """Fresh answers, each drawn for a query of its own."""
    stream = enumerate(values)

    def ask():
        i, value = next(stream)
        if value is None:
            raise BudgetExhausted("spent")
        return PerturbedResponse(value=value, epsilon_used=1.0, reused=False,
                                 query_id=f"q{i}")
    return ask


def test_averaging_mean_and_counts():
    report = repeated_query_averaging(_asker([10.0, 12.0, 14.0]), 3, 12.0)
    assert report.estimate == 12.0
    assert report.queries_consumed == 3
    assert report.details["distinct_values"] == 3
    assert report.details["fresh_responses"] == 3
    assert report.epsilon_observed == 3.0


def test_averaging_truncates_on_budget_exhaustion():
    report = repeated_query_averaging(_asker([10.0, 12.0, None]), 10, 11.0)
    assert report.queries_consumed == 2
    assert report.details["truncated_by_budget"] is True


def test_averaging_standard_error_shrinks_with_sqrt_n(rng):
    # Mean of n fresh draws has standard error sqrt(2 * lam**2 / n).
    lam, n, trials = 100.0, 100, 300
    estimates = []
    for _ in range(trials):
        noise = rng.laplace(0.0, lam, size=n)
        estimates.append(float(np.mean(noise)))
    se = statistics.pstdev(estimates)
    assert abs(se - math.sqrt(2 * lam * lam / n)) < 3.0


# ---------------------------------------------------------------------------
# end-to-end drivers

def test_linking_driver_dp_off_and_on():
    off = run_linking_attack(dp_enabled=False, seed=2)
    assert off["report"].success and off["report"].abs_error == 0.0
    on = run_linking_attack(dp_enabled=True, epsilon=1.0, n_trials=3000, seed=2)
    assert abs(on["success_rate"] - on["expected_rate"]) <= 0.03


def test_linking_driver_reads_the_schedules_writes_in_order(monkeypatch):
    """The driver's background knowledge is read from the chain: the writes
    it reads are the ones its schedule drew, in the order drawn."""
    drawn, read = [], []
    generate, from_ledger = bench.generate_workload, BackgroundKnowledge.from_ledger

    def spy_generate(cfg):
        drawn.append(generate(cfg))
        return drawn[-1]

    def spy_from_ledger(records, target_index):
        read.append(list(records))
        return from_ledger(records, target_index)

    monkeypatch.setattr(bench, "generate_workload", spy_generate)
    monkeypatch.setattr(BackgroundKnowledge, "from_ledger", spy_from_ledger)
    run_linking_attack(dp_enabled=False, n_writes=60, seed=3)
    assert len(drawn) == 1
    assert read == [[tx for _, tx in drawn[0].writes]]


def test_composition_driver_reuse_defense():
    report = run_composition_attack(reuse_enabled=True, categories=40,
                                    repeats=10, n_writes=120, seed=4)
    assert report.details["max_distinct_values_per_category"] == 1
    assert report.details["mean_within_category_variance"] == 0.0


def test_composition_driver_naive_vulnerability():
    report = run_composition_attack(reuse_enabled=False, categories=120,
                                    repeats=25, n_writes=200, seed=4)
    ratio = report.details["variance_ratio"]
    expected = report.details["expected_ratio_independent_noise"]
    assert abs(ratio / expected - 1.0) < 0.5


def test_averaging_driver_budget_truncation():
    report = run_averaging_attack(reuse_enabled=False, n=20, epsilon=1.0,
                                  epsilon_t=5.5, seed=4)
    assert report.queries_consumed == 5
    assert report.details["truncated_by_budget"] is True
    assert report.epsilon_observed == 5.0


def test_averaging_driver_reuse_spends_once():
    report = run_averaging_attack(reuse_enabled=True, n=50, seed=4)
    assert report.details["distinct_values"] == 1
    assert report.details["fresh_responses"] == 1
    assert report.epsilon_observed == 1.0
