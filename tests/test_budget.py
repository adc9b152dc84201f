import copy
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dpledger import (
    BudgetAccountant,
    BudgetExhausted,
    ConfigInvalid,
    NonPositiveEpsilon,
    ZeroQueries,
    allocate_equal,
)
from dpledger.budget import exact


# ---------------------------------------------------------------------------
# equal allocation

def test_equal_split_arithmetic():
    assert allocate_equal(1.0, 100) == 0.01
    assert allocate_equal(5.0, 5) == 1.0


def test_equal_split_rejects_zero_queries():
    with pytest.raises(ZeroQueries):
        allocate_equal(1.0, 0)


@pytest.mark.parametrize("n_queries", [True, 2.5, "3", None],
                         ids=["bool", "fraction", "string", "none"])
def test_equal_split_refuses_a_count_that_is_not_an_integer(n_queries):
    with pytest.raises(ConfigInvalid):
        allocate_equal(1.0, n_queries)


def test_equal_split_sums_back_to_threshold():
    for eps_t, n in [(1.0, 100), (1.0, 150), (3.0, 77), (0.5, 1000)]:
        share = allocate_equal(eps_t, n)
        total = 0.0
        for _ in range(n):
            total += share
        assert abs(total - eps_t) <= n * np.finfo(float).eps * eps_t


def test_equal_split_always_fits_the_threshold():
    # The awkward divisors must not overshoot under exact accounting.
    for eps_t, n in [(1.0, 150), (1.0, 3), (2.0, 7), (5.0, 755)]:
        share = allocate_equal(eps_t, n)
        acct = BudgetAccountant(eps_t)
        for i in range(n):
            acct.try_spend(share, f"q{i}", "r")
        assert acct.accumulated_exact() <= exact(eps_t)


# ---------------------------------------------------------------------------
# spending

def test_exact_exhaustion_then_rejection():
    acct = BudgetAccountant(1.0)
    for i in range(100):
        acct.try_spend(0.01, f"q{i}", "r")
    assert acct.epsilon_rem == 0.0
    assert acct.accumulated() == 1.0
    with pytest.raises(BudgetExhausted):
        acct.try_spend(1e-6, "q100", "r")


def test_rejected_spend_leaves_state_bit_identical():
    acct = BudgetAccountant(1.0)
    acct.try_spend(0.95, "q0", "r")
    before_rem = acct.remaining_exact()
    before_events = copy.deepcopy(acct.events)
    with pytest.raises(BudgetExhausted):
        acct.try_spend(0.12, "q1", "r")
    assert acct.remaining_exact() == before_rem
    assert acct.events == before_events
    assert acct.epsilon_rem == 0.05


def test_random_spend_stream_never_exceeds_threshold(rng):
    # Per-query budget drawn from the 0.01..0.12 range; cap at 8.9.
    acct = BudgetAccountant(8.9)
    while True:
        eps = round(float(rng.uniform(0.01, 0.12)), 4)
        try:
            acct.try_spend(eps, "q", "r")
        except BudgetExhausted:
            break
        assert acct.accumulated_exact() <= exact(8.9)
    assert acct.accumulated() <= 8.9


def test_remaining_budget_is_monotone(rng):
    acct = BudgetAccountant(2.0)
    last = acct.epsilon_rem
    for i in range(60):
        try:
            acct.try_spend(float(rng.uniform(0.001, 0.1)), f"q{i}", "r")
        except BudgetExhausted:
            continue
        assert acct.epsilon_rem <= last
        last = acct.epsilon_rem


def test_accumulated_tracks_spend_log():
    acct = BudgetAccountant(5.0)
    assert acct.accumulated() == 0.0
    for eps in (0.1, 0.2, 0.3):
        acct.try_spend(eps, "q", "r")
    assert acct.accumulated() == 0.6
    assert acct.accumulated() == pytest.approx(acct.epsilon_t - acct.epsilon_rem)


def test_sequential_composition_totals_m_epsilon():
    acct = BudgetAccountant(10.0)
    m, eps = 7, 0.25
    for i in range(m):
        acct.try_spend(eps, f"q{i}", "r")
    assert acct.accumulated() == m * eps


def test_conservation_invariant(rng):
    acct = BudgetAccountant(3.0)
    n = 0
    for i in range(200):
        try:
            acct.try_spend(float(rng.uniform(0.0001, 0.05)), f"q{i}", "r")
            n += 1
        except BudgetExhausted:
            break
    assert abs(acct.accumulated() + acct.epsilon_rem - acct.epsilon_t) <= 1e-9 * max(n, 1)


def test_reuse_rows_do_not_move_balances():
    acct = BudgetAccountant(1.0)
    acct.try_spend(0.2, "q0", "r")
    rem = acct.epsilon_rem
    acct.record_reuse("q1", "r", 0.3)
    assert acct.epsilon_rem == rem
    assert acct.accumulated() == 0.2
    assert [e.reused for e in acct.events] == [False, True]
    assert len(acct.spend_log) == 1


def test_invalid_constructor_and_spends():
    with pytest.raises(ConfigInvalid):
        BudgetAccountant(0.0)
    acct = BudgetAccountant(1.0)
    with pytest.raises(NonPositiveEpsilon):
        acct.try_spend(0.0, "q", "r")


BAD_AMOUNTS = [-1.0, math.nan, math.inf, -math.inf, True, "1"]
BAD_AMOUNT_IDS = ["negative", "nan", "inf", "minus-inf", "bool", "string"]


@pytest.mark.parametrize("epsilon_t", BAD_AMOUNTS, ids=BAD_AMOUNT_IDS)
def test_invalid_threshold_is_a_config_error(epsilon_t):
    with pytest.raises(ConfigInvalid):
        BudgetAccountant(epsilon_t)
    with pytest.raises(ConfigInvalid):
        allocate_equal(epsilon_t, 10)


@pytest.mark.parametrize("epsilon_f", BAD_AMOUNTS, ids=BAD_AMOUNT_IDS)
def test_invalid_spend_is_a_non_positive_epsilon(epsilon_f):
    acct = BudgetAccountant(1.0)
    with pytest.raises(NonPositiveEpsilon):
        acct.try_spend(epsilon_f, "q", "r")
    assert acct.events == [] and acct.remaining_exact() == 1


def test_integer_amounts_are_accepted():
    acct = BudgetAccountant(2)
    acct.try_spend(1, "q", "r")
    assert acct.epsilon_rem == 1.0


# ---------------------------------------------------------------------------
# exactness over the whole float range

FLOAT_MIN, FLOAT_NEAR_MAX = 5e-324, 1.7e308
POSITIVE_FLOATS = st.floats(min_value=FLOAT_MIN, max_value=FLOAT_NEAR_MAX)


@settings(derandomize=True, max_examples=200, deadline=None, database=None)
@given(epsilon_t=POSITIVE_FLOATS, data=st.data())
def test_balance_equals_the_rational_oracle_after_every_call(epsilon_t, data):
    """Spends of any positive finite floats, tiny or huge, stay exact: the
    balance is the repr-decimal rational the oracle computes, epsilon_rem is
    its nearest float, and no subtraction rounds (it would raise Inexact)."""
    acct = BudgetAccountant(epsilon_t)
    oracle = Fraction(str(epsilon_t))
    for i in range(data.draw(st.integers(1, 12), label="calls")):
        rem = max(acct.epsilon_rem, FLOAT_MIN)
        spend = data.draw(st.one_of(
            POSITIVE_FLOATS,
            st.floats(min_value=FLOAT_MIN, max_value=rem),
            st.just(rem),
        ), label=f"spend {i}")
        events = list(acct.events)
        if Fraction(str(spend)) > oracle:
            with pytest.raises(BudgetExhausted):
                acct.try_spend(spend, f"q{i}", "r")
            assert acct.events == events
        else:
            acct.try_spend(spend, f"q{i}", "r")
            oracle -= Fraction(str(spend))
            assert acct.events[-1].epsilon_rem == float(oracle)
        assert acct.remaining_exact() == oracle
        assert acct.epsilon_rem == float(oracle)
        assert acct.accumulated_exact() == Fraction(str(epsilon_t)) - oracle
