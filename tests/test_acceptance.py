"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete. Every tolerance is pinned here; seeds make each
check deterministic.
"""

import copy
import dataclasses
import json
import math
import time
from fractions import Fraction

import numpy as np
import pytest

from dpledger import (
    Aggregate,
    BudgetAccountant,
    BudgetExhausted,
    ChaincodeEngine,
    LaplaceParams,
    WorldState,
    WriteTransaction,
    build_histogram,
    empirical_dp_ratio,
    laplace_sample,
    laplace_samples,
    laplace_scale,
    verify_chain,
)
from dpledger.bench import (
    COLORS,
    CUSTOMERS,
    PRODUCTS,
    EpsilonSchedule,
    WorkloadConfig,
    _execute,
    generate_workload,
    run_composition_attack,
    run_linking_attack,
    run_scenario,
    scenario_config,
    sweep,
)
from dpledger.budget import exact
from dpledger.chaincode import evaluate_exact
from dpledger.ledger import export_transactions
from dpledger.transactions import normalize

from conftest import make_query, make_write


def _ok(n, text):
    print(f"\nACCEPTANCE {n} PASS: {text}")


# ---------------------------------------------------------------------------
# 1. privacy inequality on neighboring ledgers

def test_criterion_1_dp_inequality_on_neighboring_ledgers():
    cfg = WorkloadConfig(n_writes=499, n_queries=0, seed=31)
    schedule = generate_workload(cfg)
    state_y = WorldState()
    for _, tx in schedule.writes:
        state_y.apply_write(tx)
    state_x = copy.deepcopy(state_y)
    state_x.apply_write(make_write(quantity=100))  # the one differing record, worst case

    q = make_query(Aggregate.SUM)
    truth_x = evaluate_exact(q, state_x)
    truth_y = evaluate_exact(q, state_y)
    assert truth_x - truth_y == 100.0

    n = 100_000
    for epsilon in (0.5, 1.0, 2.0):
        started = time.perf_counter()
        lam = laplace_scale(epsilon, 100.0)
        gen = np.random.default_rng(1000 + int(epsilon * 10))
        out_x = truth_x + laplace_samples(LaplaceParams(0.0, lam), gen, n)
        out_y = truth_y + laplace_samples(LaplaceParams(0.0, lam), gen, n)
        edges = np.linspace(min(out_x.min(), out_y.min()),
                            max(out_x.max(), out_y.max()), 41)
        hx = build_histogram(out_x, edges)
        hy = build_histogram(out_y, edges)
        assert empirical_dp_ratio(hx, hy, epsilon) is True
        elapsed = time.perf_counter() - started
        assert elapsed < 30.0
    _ok(1, "privacy inequality holds empirically at epsilon 0.5/1/2 "
           f"on 10^5 samples per side ({elapsed:.2f}s for the last epsilon)")


# ---------------------------------------------------------------------------
# 2. sampler calibration

def test_criterion_2_laplace_sampler_calibration():
    draws = laplace_samples(LaplaceParams(0.0, 100.0), np.random.default_rng(2024),
                            100_000)
    mean = float(draws.mean())
    var = float(draws.var())
    assert abs(mean) <= 2.0
    assert abs(var / 20_000.0 - 1.0) <= 0.05

    params = LaplaceParams(0.0, 100.0)
    for seed in (0, 1, 2, 3, 4):
        sampler_gen = np.random.default_rng(seed)
        oracle_gen = np.random.default_rng(seed)
        for _ in range(2000):
            got = laplace_sample(params, sampler_gen)
            u = oracle_gen.random() - 0.5
            want = -100.0 * math.copysign(1.0, u) * math.log(1.0 - 2.0 * abs(u))
            assert got == want
    _ok(2, f"10^5 draws at scale 100: mean={mean:+.3f} (<=2), "
           f"variance={var:.0f} (within 5% of 20000); "
           "inverse-CDF oracle matched bit-exactly on 10^4 seeded draws")


# ---------------------------------------------------------------------------
# 3. relative error trend across the budget sweep

def test_criterion_3_relative_error_trend():
    result = sweep(scenario_config("error-150"), [1, 2, 3, 4, 5])
    rows = result["rows"]
    errs = [row["mean_relative_error"] for row in rows]
    assert all(a > b for a, b in zip(errs, errs[1:])), "error must strictly decrease"
    for row in rows:
        diff = abs(row["mean_relative_error"] - row["expected_error"])
        assert diff <= 3.0 * row["expected_error_se"], (
            f"epsilon_t={row['epsilon_t']}: error {row['mean_relative_error']:.3f} "
            f"vs analytic {row['expected_error']:.3f} beyond 3 standard errors"
        )
    trend = " > ".join(f"{e:.2f}%" for e in errs)
    _ok(3, f"150 SUM queries, swept budget 1..5: {trend}; "
           "each point within 3 SE of mean(100*scale/a)")


# ---------------------------------------------------------------------------
# 4. budget savings scenario plus exact reuse identity

def test_criterion_4_budget_savings_scenario():
    report = run_scenario(scenario_config("budget-155"))
    naive = report["naive_eps_sum"]
    reuse = report["reuse_eps_sum"]
    savings = report["savings_pct"]
    assert naive == pytest.approx(8.9, abs=0.05)
    assert reuse == pytest.approx(5.7, abs=0.05)
    assert savings == pytest.approx(35.96, abs=1.0)
    _ok(4, f"shipped budget-155 scenario: naive={naive:.4f}, reuse={reuse:.4f}, "
           f"savings={savings:.2f}%")


def test_criterion_4_property_reuse_identity_over_random_schedules():
    for trial in range(100):
        gen = np.random.default_rng(trial)
        n_queries = int(gen.integers(10, 40))
        max_repeats = n_queries - 1
        n_repeats = int(gen.integers(0, max_repeats + 1))
        cfg = WorkloadConfig(
            name=f"trial-{trial}", n_writes=30, n_queries=n_queries,
            n_repeats=n_repeats, epsilon_t=50.0,
            epsilon_schedule=EpsilonSchedule(kind="uniform", low=0.01, high=0.12),
            write_rate=30, query_rate=30, sum_only=False, seed=trial,
        )
        schedule = generate_workload(cfg)
        base = WorldState()
        for _, tx in schedule.writes:
            base.apply_write(tx)

        sums = {}
        for reuse_enabled in (False, True):
            state = copy.deepcopy(base)
            acct = BudgetAccountant(cfg.epsilon_t)
            engine = ChaincodeEngine(reuse_enabled=reuse_enabled)
            rng = np.random.default_rng(trial + 10_000)
            for i, plan in enumerate(schedule.queries):
                engine.answer_query(plan.tx, state, acct, plan.eps_f, rng,
                                    query_id=f"q{i}")
            sums[reuse_enabled] = acct.accumulated_exact()

        repeated = sum(
            (exact(p.eps_f) for p in schedule.queries if p.repeat_of is not None),
            Fraction(0),
        )
        assert sums[True] == sums[False] - repeated, f"trial {trial} broke the identity"
    _ok(4, "100 random schedules: reuse eps_sum == naive eps_sum - "
           "sum(eps of repeated queries), exactly")


# ---------------------------------------------------------------------------
# 5. threshold safety and spend atomicity

def test_criterion_5_threshold_safety_and_atomicity():
    gen = np.random.default_rng(55)
    rejections = 0
    for _ in range(10_000):
        epsilon_t = float(gen.uniform(0.3, 1.5))
        acct = BudgetAccountant(epsilon_t)
        limit = exact(epsilon_t)
        while True:
            eps = round(float(gen.uniform(0.01, 0.12)), 6)
            before_rem = acct.remaining_exact()
            before_events = list(acct.events)
            try:
                acct.try_spend(eps, "q", "r")
            except BudgetExhausted:
                assert acct.remaining_exact() == before_rem
                assert acct.events == before_events
                rejections += 1
                break
            assert acct.accumulated_exact() <= limit
    _ok(5, f"10^4 randomized spend sequences never exceeded the threshold; "
           f"{rejections} rejections all left state untouched")


# ---------------------------------------------------------------------------
# 6. composition attack defense

def test_criterion_6_composition_attack_defense():
    defended = run_composition_attack(reuse_enabled=True, categories=200,
                                      repeats=50, n_writes=300, seed=6)
    assert defended.details["max_distinct_values_per_category"] == 1
    assert defended.details["mean_within_category_variance"] == 0.0

    vulnerable = run_composition_attack(reuse_enabled=False, categories=200,
                                        repeats=50, n_writes=300, seed=6)
    ratio = vulnerable.details["variance_ratio"]
    expected = 1.0 / (2 * 50)
    assert abs(ratio / expected - 1.0) <= 0.20, (
        f"variance ratio {ratio:.5f} deviates more than 20% from {expected}"
    )
    _ok(6, "budget reuse returns one distinct value per category across both "
           f"peers and 50 repeats; fresh-noise baseline shrinks variance by "
           f"{ratio:.4f} (expected 1/(2*50) = {expected})")


# ---------------------------------------------------------------------------
# 7. linking attack calibration

def test_criterion_7_linking_attack_calibration():
    off = run_linking_attack(dp_enabled=False, seed=77)
    assert off["report"].success
    assert off["report"].abs_error == 0.0

    on = run_linking_attack(dp_enabled=True, epsilon=1.0, n_trials=10_000,
                            tolerance=5.0, seed=77)
    expected = 1.0 - math.exp(-0.05)
    assert on["expected_rate"] == pytest.approx(expected)
    assert abs(on["success_rate"] - expected) <= 0.02
    _ok(7, f"noise off: exact recovery; noise on: success rate "
           f"{on['success_rate']:.4f} vs 1-exp(-0.05)={expected:.4f} "
           "(within +/-0.02 over 10^4 trials)")


# ---------------------------------------------------------------------------
# 8. ledger and flow integrity at 650 transactions

def test_criterion_8_flow_integrity_650_transactions():
    started = time.perf_counter()
    cfg = scenario_config("error-150")
    schedule = generate_workload(cfg)
    res = _execute(cfg, schedule, reuse_enabled=True)
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0

    committed = [r for r in res.net.receipts if r.commit_height is not None]
    assert len(committed) == 650

    chains = [p.chain for p in res.net.peers.values()]
    assert len(chains) == 2
    assert [b.block_hash for b in chains[0]] == [b.block_hash for b in chains[1]]
    assert all(verify_chain(c) for c in chains)
    exports = [export_transactions(c, "mychannel") for c in chains]
    assert exports[0] == exports[1]

    # any single-byte mutation must break verification
    gen = np.random.default_rng(88)
    chain = chains[0]
    for _ in range(25):
        height = int(gen.integers(1, len(chain)))
        block = chain[height]
        env_i = int(gen.integers(len(block.envelopes)))
        env = block.envelopes[env_i]
        field = "customer_name" if isinstance(env.tx, WriteTransaction) else "requester_id"
        raw = bytearray(getattr(env.tx, field).encode())
        pos = int(gen.integers(len(raw)))
        raw[pos] ^= 0x01
        mutated_tx = dataclasses.replace(env.tx, **{field: raw.decode("latin-1")})
        mutated_env = dataclasses.replace(env, tx=mutated_tx)
        envelopes = list(block.envelopes)
        envelopes[env_i] = mutated_env
        tampered = list(chain)
        tampered[height] = dataclasses.replace(block, envelopes=tuple(envelopes))
        assert verify_chain(tampered) is False
    assert verify_chain(chain) is True
    _ok(8, f"500 writes + 150 queries committed identically on both peers in "
           f"{elapsed:.1f}s; 25 injected single-byte mutations all detected")


# ---------------------------------------------------------------------------
# 9. exactness oracle against the exported ledger

def test_criterion_9_exactness_oracle_on_export():
    cfg = scenario_config("error-150")
    schedule = generate_workload(cfg)
    res = _execute(cfg, schedule, reuse_enabled=True)
    peer = next(iter(res.net.peers.values()))
    text = export_transactions(peer.chain, "mychannel")
    state = peer.state

    # independent brute-force oracle over the JSON-lines dump
    rows = [json.loads(line) for line in text.splitlines()[1:]]
    writes = [row["tx"] for row in rows if row["tx"]["kind"] == "write"]

    def oracle(aggregate, customer, product, color):
        total = 0
        count = 0
        for tx in writes:
            if customer is not None and normalize(tx["customer_name"]) != normalize(customer):
                continue
            if product is not None and normalize(tx["product_name"]) != normalize(product):
                continue
            if color is not None and normalize(tx["color"]) != normalize(color):
                continue
            count += 1
            total += tx["quantity"]
        return float(count if aggregate is Aggregate.COUNT else total)

    gen = np.random.default_rng(99)
    customers = list(CUSTOMERS) + ["Nobody"]
    products = list(PRODUCTS) + ["widget"]
    colors = list(COLORS) + ["mauve"]
    mismatches = 0
    for _ in range(1000):
        customer = customers[int(gen.integers(len(customers)))] if gen.random() < 0.5 else None
        product = products[int(gen.integers(len(products)))] if gen.random() < 0.5 else None
        color = colors[int(gen.integers(len(colors)))] if gen.random() < 0.5 else None
        aggregate = Aggregate.SUM if gen.random() < 0.5 else Aggregate.COUNT
        q = make_query(aggregate, customer, product, color)
        if evaluate_exact(q, state) != oracle(aggregate, customer, product, color):
            mismatches += 1
    assert mismatches == 0
    _ok(9, "1000 random predicates: indexed evaluation agrees with the "
           "brute-force scan of the JSON-lines export, zero mismatches")


# ---------------------------------------------------------------------------
# 10. linear-cost claim via instrumentation

def test_criterion_10_linear_probe_and_evaluation_counts():
    ratios = {}
    for n_queries in (1000, 2000):
        cfg = WorkloadConfig(
            name=f"probe-{n_queries}", n_writes=500, n_queries=n_queries,
            n_repeats=n_queries // 2, epsilon_t=100.0,
            epsilon_schedule=EpsilonSchedule(kind="uniform", low=0.01, high=0.12),
            sum_only=False, seed=10,
        )
        schedule = generate_workload(cfg)
        state = WorldState()
        for _, tx in schedule.writes:
            state.apply_write(tx)
        acct = BudgetAccountant(cfg.epsilon_t)
        engine = ChaincodeEngine()
        rng = np.random.default_rng(10)
        for i, plan in enumerate(schedule.queries):
            engine.answer_query(plan.tx, state, acct, plan.eps_f, rng,
                                query_id=f"q{i}")
        ratios[n_queries] = (engine.probe_count / n_queries,
                             engine.evaluation_count / n_queries)

    (p1, e1), (p2, e2) = ratios[1000], ratios[2000]
    assert abs(p2 - p1) / p1 < 0.01
    assert abs(e2 - e1) / e1 < 0.01
    _ok(10, f"probe/query ratio {p1:.3f} -> {p2:.3f} and evaluation/query ratio "
            f"{e1:.3f} -> {e2:.3f} changed by <1% when doubling N")
