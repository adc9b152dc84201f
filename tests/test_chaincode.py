import dataclasses
import math

import pytest

from dpledger import (
    Aggregate,
    BudgetAccountant,
    BudgetExhausted,
    ChaincodeEngine,
    NonPositiveEpsilon,
    UnsupportedAggregate,
    WorldState,
    evaluate_exact,
    validate_query,
)
from dpledger.bench import CUSTOMERS, WorkloadConfig, generate_workload

from conftest import make_query, make_write
from test_laplace import FixedUniformRng


# ---------------------------------------------------------------------------
# category keys

def test_normalization_merges_case_and_whitespace():
    a = make_query(Aggregate.SUM, color="red").key
    b = make_query(Aggregate.SUM, color=" RED ").key
    assert a == b


def test_different_attribute_values_are_different_categories():
    red = make_query(Aggregate.SUM, color="red").key
    blue = make_query(Aggregate.SUM, color="blue").key
    assert red != blue


def test_aggregate_is_part_of_the_key():
    count = make_query(Aggregate.COUNT, customer="Bob").key
    total = make_query(Aggregate.SUM, customer="Bob").key
    assert count != total


def test_absent_and_present_attributes_differ():
    narrow = make_query(Aggregate.SUM, customer="Bob", color="red").key
    wide = make_query(Aggregate.SUM, customer="Bob").key
    assert narrow != wide


def test_unsupported_aggregate_rejected():
    q = make_query(Aggregate.SUM)
    bad = dataclasses.replace(q, key=dataclasses.replace(q.key, aggregate="AVERAGE"))
    with pytest.raises(UnsupportedAggregate):
        validate_query(bad)


# ---------------------------------------------------------------------------
# exact evaluation

def test_sum_over_all_records(small_state):
    assert evaluate_exact(make_query(Aggregate.SUM), small_state) == 115.0


def test_count_on_empty_ledger_is_zero():
    assert evaluate_exact(make_query(Aggregate.COUNT), WorldState()) == 0.0


def test_filtered_evaluation(small_state):
    assert evaluate_exact(make_query(Aggregate.SUM, customer="Bob"), small_state) == 30.0
    assert evaluate_exact(make_query(Aggregate.COUNT, color="red"), small_state) == 3.0
    assert evaluate_exact(
        make_query(Aggregate.SUM, customer="claire", product="BOLT"), small_state) == 5.0


def test_per_customer_sums_partition_the_total():
    cfg = WorkloadConfig(n_writes=500, n_queries=0)
    schedule = generate_workload(cfg)
    state = WorldState()
    for _, tx in schedule.writes:
        state.apply_write(tx)
    total = evaluate_exact(make_query(Aggregate.SUM), state)
    parts = sum(
        evaluate_exact(make_query(Aggregate.SUM, customer=c), state)
        for c in CUSTOMERS
    )
    assert parts == total


# ---------------------------------------------------------------------------
# cache lookup and the answer path

def _setup(epsilon_t=10.0, **engine_kwargs):
    state = WorldState()
    for qty, color in ((10, "red"), (20, "red"), (30, "blue")):
        state.apply_write(make_write(quantity=qty, color=color))
    acct = BudgetAccountant(epsilon_t)
    engine = ChaincodeEngine(**engine_kwargs)
    return state, acct, engine


def test_lookup_on_empty_log_returns_none(small_state):
    key = make_query(Aggregate.SUM).key
    assert small_state.lookup(key) is None


def test_repeat_returns_identical_response_and_spends_once(rng):
    state, acct, engine = _setup()
    q = make_query(Aggregate.SUM, customer="Claire")
    first = engine.answer_query(q, state, acct, 0.5, rng, query_id="q0")
    assert first.response.query_id == "q0" and first.response.reused is False
    spent_after_first = acct.accumulated()
    for i in range(9):
        again = engine.answer_query(q, state, acct, 0.5, rng, query_id=f"q{i+1}")
        # A repeat is served the recorded answer itself; nothing new is built.
        assert again is first
    assert acct.accumulated() == spent_after_first
    assert len(acct.spend_log) == 1
    assert len(acct.events) == 10
    # Repeats are recorded by the accountant only; the committed state is
    # read, never written, and the one fresh answer waits in the overlay.
    assert state._latest == {}
    assert list(engine.pending) == [q.key] and engine.pending[q.key] is first


def test_probe_of_unasked_key_spends_nothing(rng):
    state, acct, engine = _setup()
    for i in range(5):
        engine.answer_query(make_query(Aggregate.SUM, color=f"color{i}"),
                            state, acct, 0.1, rng, query_id=f"q{i}")
    before = acct.accumulated()
    # Five distinct categories: each one missed the cache.
    assert engine.noise_draws == 5
    assert state.lookup(make_query(Aggregate.COUNT).key) is None
    assert acct.accumulated() == before


def test_exhausted_query_leaves_log_unchanged(rng):
    state, acct, engine = _setup(epsilon_t=0.05)
    q = make_query(Aggregate.SUM)
    with pytest.raises(BudgetExhausted):
        engine.answer_query(q, state, acct, 0.12, rng, query_id="q0")
    assert state._latest == {}
    assert acct.epsilon_rem == 0.05


def test_fresh_noise_of_two_gives_502():
    state = WorldState()
    for qty in (100, 100, 100, 100, 100):
        state.apply_write(make_write(quantity=qty))
    acct = BudgetAccountant(10.0)
    engine = ChaincodeEngine()
    u = 1.0 - math.exp(-2.0 / 100.0) / 2.0
    record = engine.answer_query(make_query(Aggregate.SUM), state, acct, 1.0,
                                 FixedUniformRng([u]), query_id="q0")
    assert record.response.value == pytest.approx(502.0, abs=1e-9)
    assert record.response.epsilon_used == 1.0
    assert acct.epsilon_rem == 9.0


def test_reuse_determinism_across_random_sequences(rng):
    state, acct, engine = _setup(epsilon_t=50.0)
    queries = [
        make_query(Aggregate.SUM, color="red"),
        make_query(Aggregate.COUNT, color="red"),
        make_query(Aggregate.SUM, color="blue"),
        make_query(Aggregate.SUM),
    ]
    seen = {}
    for i in range(200):
        q = queries[int(rng.integers(len(queries)))]
        record = engine.answer_query(q, state, acct, 0.2, rng, query_id=f"q{i}")
        seen.setdefault(q.key, set()).add(record.response.value)
    assert all(len(values) == 1 for values in seen.values())
    assert acct.accumulated() == pytest.approx(0.2 * len(seen))


def test_naive_mode_never_consults_the_cache(rng):
    state, acct, engine = _setup(reuse_enabled=False)
    q = make_query(Aggregate.SUM)
    a = engine.answer_query(q, state, acct, 0.5, rng, query_id="qa")
    b = engine.answer_query(q, state, acct, 0.5, rng, query_id="qb")
    assert a.response.value != b.response.value
    assert engine.probe_count == 0
    assert acct.accumulated() == 1.0


def test_instrumentation_counts_probes_and_evaluations(rng):
    state, acct, engine = _setup(epsilon_t=100.0)
    q_red = make_query(Aggregate.SUM, color="red")
    q_blue = make_query(Aggregate.SUM, color="blue")
    for i, q in enumerate([q_red, q_blue, q_red, q_red, q_blue]):
        engine.answer_query(q, state, acct, 0.1, rng, query_id=f"q{i}")
    assert engine.probe_count == 5
    assert engine.evaluation_count == 2
    assert engine.noise_draws == 2


def test_record_key_is_the_query_key(rng):
    state, acct, engine = _setup(reuse_enabled=False)
    a = make_query(Aggregate.SUM, customer="Bob", color="red")
    b = make_query(Aggregate.SUM, customer=" BOB ", color="Red")
    assert a == b and a.key is not b.key
    records = [engine.answer_query(q, state, acct, 0.5, rng, query_id=f"q{i}")
               for i, q in enumerate((a, b))]
    # The chaincode builds no key: each record holds its query's own.
    assert records[0].key is a.key and records[1].key is b.key


@pytest.mark.parametrize("reuse_enabled", [True, False], ids=["reuse", "naive"])
@pytest.mark.parametrize("eps_f", [1e-9, float("nan"), float("inf"), float("-inf"), 0.0, -1.0],
                         ids=["sub-floor", "nan", "inf", "-inf", "zero", "negative"])
def test_bad_epsilon_is_rejected_before_any_spend_or_reuse(reuse_enabled, eps_f, rng):
    state, _, engine = _setup(reuse_enabled=reuse_enabled)
    q = make_query(Aggregate.SUM, color="red")
    # A valid twin is already answered; with reuse on its category is a cache hit.
    engine.answer_query(q, state, BudgetAccountant(10.0), 0.2, rng, query_id="q0")
    pending = dict(engine.pending)
    acct = BudgetAccountant(10.0)
    with pytest.raises(NonPositiveEpsilon):
        engine.answer_query(q, state, acct, eps_f, rng, query_id="q1")
    assert acct.events == []
    assert engine.pending == pending
