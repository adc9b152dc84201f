"""End-to-end ε audit of the query chaincode.

Neighbouring ledgers D and D′ = D + one write of ``QUANTITY_MAX`` in the
queried cell are each asked one query N times through
``ChaincodeEngine.answer_query``, each time with a fresh accountant. For every
event of a fixed threshold grid, one-sided Clopper–Pearson bounds give, with
confidence 1 - ALPHA over the whole grid, a lower bound on
ln(P_D[event] / P_D′[event]) and on its reverse. ε-DP says no such bound may
exceed the ε the accountant charged. This is the statistical audit of Ding et
al. ("Detecting Violations of Differential Privacy", CCS 2018) and Jagielski,
Ullman and Oprea ("Auditing Differentially Private Machine Learning",
NeurIPS 2020), run on the path a query really takes.

The grid is laid out in units of the exact answers' difference, never of the
mechanism's own sensitivity, so noise scaled to less than one write moves
the outputs past the grid and fails the audit.
"""

import math

import numpy as np
import pytest

from dpledger import Aggregate, BudgetAccountant, ChaincodeEngine, WorldState
from dpledger.chaincode import evaluate_exact
from dpledger.transactions import QUANTITY_MAX

from conftest import make_query, make_write

N = 10_000
EPSILON = 1.0
ALPHA = 1e-3  # chance that a correct mechanism fails one audit
STEPS = range(-12, 13)  # thresholds at (a_D + a_D′) / 2 + step * (a_D′ - a_D) / 4


# ---------------------------------------------------------------------------
# one-sided Clopper–Pearson bounds, by bisection on the binomial CDF

def _beta_fraction(a: float, b: float, x: float) -> float:
    """Continued fraction of the regularized incomplete beta (modified Lentz)."""
    tiny = 1e-300
    c, d = 1.0, 1.0 - (a + b) * x / (a + 1.0)
    d = 1.0 / (d if abs(d) > tiny else tiny)
    h = d
    for m in range(1, 100_000):
        for numerator in (m * (b - m) * x / ((a + 2 * m - 1.0) * (a + 2 * m)),
                          -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1.0))):
            d = 1.0 + numerator * d
            d = 1.0 / (d if abs(d) > tiny else tiny)
            c = 1.0 + numerator / c
            c = c if abs(c) > tiny else tiny
            h *= d * c
        if abs(d * c - 1.0) < 1e-15:
            return h
    raise ArithmeticError(f"incomplete beta did not converge at a={a}, b={b}, x={x}")


def _betainc(a: float, b: float, x: float) -> float:
    """I_x(a, b); for integers, P(Binomial(a + b - 1, x) >= a)."""
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    front = math.exp(math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
                     + a * math.log(x) + b * math.log1p(-x))
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _beta_fraction(a, b, x) / a
    return 1.0 - front * _beta_fraction(b, a, 1.0 - x) / b


def _crossing(f, target: float) -> tuple:
    """(lo, hi) bracketing where the increasing f on [0, 1] reaches target."""
    lo, hi = 0.0, 1.0
    for _ in range(40):
        mid = (lo + hi) / 2.0
        if f(mid) < target:
            lo = mid
        else:
            hi = mid
    return lo, hi


def cp_lower(k: int, n: int, alpha: float) -> float:
    """p below which k or more successes in n trials have probability <= alpha."""
    if k == 0:
        return 0.0
    return _crossing(lambda p: _betainc(k, n - k + 1, p), alpha)[0]


def cp_upper(k: int, n: int, alpha: float) -> float:
    """p above which k or fewer successes in n trials have probability <= alpha."""
    if k == n:
        return 1.0
    return _crossing(lambda p: _betainc(k + 1, n - k, p), 1.0 - alpha)[1]


def test_clopper_pearson_brackets_the_binomial_tail():
    n, alpha = 200, 0.01
    for k in (0, 1, 37, 100, 199, 200):
        lo, hi = cp_lower(k, n, alpha), cp_upper(k, n, alpha)
        assert 0.0 <= lo <= k / n <= hi <= 1.0
        tail_up = sum(math.comb(n, j) * lo ** j * (1 - lo) ** (n - j) for j in range(k, n + 1))
        tail_down = sum(math.comb(n, j) * hi ** j * (1 - hi) ** (n - j) for j in range(k + 1))
        if k > 0:
            assert tail_up == pytest.approx(alpha, rel=1e-6)
        if k < n:
            assert tail_down == pytest.approx(alpha, rel=1e-6)


def loss_lower_bound(outs_d: np.ndarray, outs_d2: np.ndarray, thresholds) -> float:
    """Largest lower bound on |ln(P_D[E] / P_D′[E])| over E = {out > t}, {out <= t}.

    Each (event, direction) uses two Clopper–Pearson bounds; ALPHA is split
    evenly over all of them. A direction whose observed ratio is at most 1
    cannot bound the loss above 0 and is skipped.
    """
    n = len(outs_d)
    assert len(outs_d2) == n
    events = []
    for t in thresholds:
        above_d, above_d2 = int((outs_d > t).sum()), int((outs_d2 > t).sum())
        events += [(above_d, above_d2), (n - above_d, n - above_d2)]
    alpha = ALPHA / (4 * len(events))
    best = -math.inf
    for k_d, k_d2 in events:
        for k_x, k_y in ((k_d, k_d2), (k_d2, k_d)):
            if k_x <= k_y:
                continue
            best = max(best, math.log(cp_lower(k_x, n, alpha) / cp_upper(k_y, n, alpha)))
    return best


# ---------------------------------------------------------------------------
# neighbouring ledgers through the engine

def _ledgers():
    """D, and D′ = D plus one ``QUANTITY_MAX`` write in the queried cell."""
    d, d2 = WorldState(), WorldState()
    for customer, qty in (("Bob", 40), ("Bob", 7), ("Claire", 55), ("Bob", 93)):
        for state in (d, d2):
            state.apply_write(make_write(customer=customer, quantity=qty))
    d2.apply_write(make_write(customer="Bob", quantity=QUANTITY_MAX))
    return d, d2


def _thresholds(q, d, d2):
    a, a2 = evaluate_exact(q, d), evaluate_exact(q, d2)
    assert a2 - a == (QUANTITY_MAX if q.key.aggregate is Aggregate.SUM else 1)
    return [(a + a2) / 2.0 + step * (a2 - a) / 4.0 for step in STEPS]


def _single_answers(q, state, seed):
    """N fresh answers, each charged to its own accountant; (answers, ε charged)."""
    engine = ChaincodeEngine(reuse_enabled=False)
    rng = np.random.default_rng(seed)
    answers, charged = np.empty(N), set()
    for i in range(N):
        acct = BudgetAccountant(EPSILON)
        record = engine.answer_query(q, state, acct, EPSILON, rng, query_id=f"q{i}")
        answers[i] = record.response.value
        charged.add(acct.accumulated())
    return answers, charged


def _pair_means(q, state, seed, reuse_enabled=True):
    """N means of two answers to ``q``, each pair charged to its own
    accountant, which can pay for both, and answered by a fresh engine;
    (means, ε charged)."""
    rng = np.random.default_rng(seed)
    means, charged = np.empty(N), set()
    for i in range(N):
        engine = ChaincodeEngine(reuse_enabled=reuse_enabled)
        acct = BudgetAccountant(2 * EPSILON)
        first = engine.answer_query(q, state, acct, EPSILON, rng, query_id="q0").response.value
        second = engine.answer_query(q, state, acct, EPSILON, rng, query_id="q1").response.value
        means[i] = (first + second) / 2.0
        charged.add(acct.accumulated())
    return means, charged


@pytest.mark.parametrize("aggregate", [Aggregate.COUNT, Aggregate.SUM])
def test_one_answer_loses_at_most_the_epsilon_charged(aggregate):
    d, d2 = _ledgers()
    q = make_query(aggregate, customer="Bob")
    outs_d, charged_d = _single_answers(q, d, seed=101)
    outs_d2, charged_d2 = _single_answers(q, d2, seed=202)
    assert charged_d == charged_d2 == {EPSILON}
    assert loss_lower_bound(outs_d, outs_d2, _thresholds(q, d, d2)) <= EPSILON


def test_a_reused_pair_loses_at_most_the_epsilon_charged():
    d, d2 = _ledgers()
    q = make_query(Aggregate.SUM, customer="Bob")
    means_d, charged_d = _pair_means(q, d, seed=303)
    means_d2, charged_d2 = _pair_means(q, d2, seed=404)
    assert charged_d == charged_d2 == {EPSILON}
    assert loss_lower_bound(means_d, means_d2, _thresholds(q, d, d2)) <= EPSILON


def test_a_fresh_pair_loses_more_than_the_epsilon_charged_per_answer():
    # With reuse off the second answer is a fresh draw: the pair loses more
    # than the ε charged for one answer, the premise of the composition
    # attack, and no more than the 2ε charged for both.
    d, d2 = _ledgers()
    q = make_query(Aggregate.SUM, customer="Bob")
    means_d, charged_d = _pair_means(q, d, seed=505, reuse_enabled=False)
    means_d2, charged_d2 = _pair_means(q, d2, seed=606, reuse_enabled=False)
    assert charged_d == charged_d2 == {2 * EPSILON}
    assert EPSILON < loss_lower_bound(means_d, means_d2, _thresholds(q, d, d2)) <= 2 * EPSILON
