import functools
import hashlib
import json
import math
import re
from dataclasses import FrozenInstanceError, replace
from fractions import Fraction

import numpy as np
import pytest

from dpledger import bench, codec
from dpledger import (
    Aggregate,
    BackgroundKnowledge,
    ConfigInvalid,
    WorldState,
    ZeroActual,
    relative_error,
)
from dpledger.bench import (
    EPS_UNIT,
    EpsilonSchedule,
    WorkloadConfig,
    _at_rate,
    export_report,
    export_sweep,
    generate_workload,
    run_scenario,
    scenario_config,
    sweep,
)
from dpledger.budget import exact
from dpledger.ledger import export_transactions
from dpledger.transactions import QUANTITY_MAX, QUANTITY_MIN, WriteTransaction


def _tiny_cfg(**kwargs):
    defaults = dict(
        name="tiny", n_writes=40, n_queries=20, n_repeats=5,
        epsilon_t=5.0,
        epsilon_schedule=EpsilonSchedule(kind="uniform", low=0.01, high=0.12),
        write_rate=10, query_rate=10, seed=13,
    )
    defaults.update(kwargs)
    return WorkloadConfig(**defaults)


# ---------------------------------------------------------------------------
# configuration

def test_config_validation_rejects_bad_values():
    with pytest.raises(ConfigInvalid):
        WorkloadConfig(write_rate=0)
    with pytest.raises(ConfigInvalid):
        WorkloadConfig(n_queries=10, n_repeats=10)
    with pytest.raises(ConfigInvalid):
        WorkloadConfig(n_repeats=-1)
    WorkloadConfig(n_queries=10, n_repeats=9)
    with pytest.raises(ConfigInvalid):
        WorkloadConfig(epsilon_t=0.0)
    # Wrongly typed values built in Python, not read from JSON.
    with pytest.raises(ConfigInvalid):
        WorkloadConfig(n_writes="5")
    with pytest.raises(ConfigInvalid):
        WorkloadConfig(sum_only=1)


def test_records_are_frozen_and_checked_when_built():
    cfg = scenario_config("error-150")
    bk = BackgroundKnowledge.from_ledger(
        [tx for _, tx in generate_workload(replace(cfg, n_writes=5, n_queries=0)).writes], 0)
    for record, name in ((cfg, "seed"), (cfg.epsilon_schedule, "kind"), (bk, "target")):
        with pytest.raises(FrozenInstanceError):
            setattr(record, name, getattr(record, name))
    # ``replace`` builds a new config, and the new config is checked too.
    with pytest.raises(ConfigInvalid, match="seed"):
        replace(cfg, seed=-1)
    with pytest.raises(ConfigInvalid, match="weighted"):
        replace(cfg, epsilon_schedule=replace(cfg.epsilon_schedule, kind="weighted"))


def test_config_round_trips_through_dict():
    cfg = scenario_config("budget-155")
    again = WorkloadConfig.from_dict(cfg.to_dict())
    assert again == cfg


def test_config_fields_are_the_knobs_a_scenario_varies():
    # A new knob needs a caller: a shipped scenario, a CLI flag, an attack
    # driver or a benchmark workload that sets it to more than one value.
    assert [name for name, _, _ in codec.fields(WorkloadConfig)] == [
        "name", "n_writes", "n_queries", "n_repeats", "sum_only", "epsilon_t",
        "epsilon_schedule", "write_rate", "query_rate", "rate_sweep", "seed"]
    assert [name for name, _, _ in codec.fields(EpsilonSchedule)] == [
        "kind", "value", "low", "high", "fresh_total", "repeat_total"]


def test_config_rejects_unknown_fields():
    with pytest.raises(ConfigInvalid):
        WorkloadConfig.from_dict({"n_writes": 10, "bogus": 1})


@pytest.mark.parametrize("doc", [[{"n_writes": 10}], "error-150", 5, None],
                         ids=["array", "string", "number", "null"])
def test_config_must_be_a_json_object(doc):
    with pytest.raises(ConfigInvalid):
        WorkloadConfig.from_dict(doc)


@pytest.mark.parametrize("change", [
    {"rate_sweep": 5},
    {"epsilon_schedule": "equal"},
    {"epsilon_schedule": {"kind": "fixed", "valeu": 0.5}},
    {"n_writes": "5"},
    {"n_writes": True},
    {"seed": 1.5},
    {"seed": -1},
    # json.load reads NaN and Infinity in a config file as these floats.
    {"epsilon_t": float("nan")},
    {"epsilon_t": float("inf")},
    {"rate_sweep": [10, "20"]},
    {"sum_only": 1},
    {"epsilon_schedule": {"kind": "fixed", "value": float("nan")}},
    {"n_repeats": None},
    # Not config fields: the SUM sensitivity is QUANTITY_MAX, quantities are
    # drawn from [QUANTITY_MIN, QUANTITY_MAX], every answer carries noise,
    # n_repeats is the one repeat count and attacks run through their drivers.
    {"sensitivity_bound": 100.0},
    {"quantity_range": 7},
    {"quantity_range": ["1", 5]},
    {"attacks": "linking"},
    {"dp_enabled": True},
    {"repeat_ratio": 0.0},
    {"epsilon_schedule": {"kind": "weighted", "weights": {"distributor-a": "2"}}},
    {"epsilon_schedule": {"kind": "weighted"}},
    # Nor these: the write vocabulary is bench.CUSTOMERS, PRODUCTS and COLORS,
    # every query comes from bench.REQUESTER, and a run uses Network's default
    # topology and batching.
    {"customers": 5},
    {"customers": "Bob"},
    {"products": {"bolt": 1}},
    {"colors": True},
    {"requesters": "distributor-a"},
    {"orgs": "org1"},
    {"orgs": [["org1"]]},
    {"orgs": [["org1", "peer0.org1"]]},
    {"endorsement_policy": 3},
    {"orgs": [["org1", ["p0"]], ["org2", ["p0"]]], "endorsement_policy": 2},
    {"orgs": [["org1", ["p0"]], ["org2", ["p0"]]]},
    {"orgs": [["org1", ["p0", "p0"]]]},
    {"batch_size": 0},
    {"batch_timeout": -1},
    # Every query of the run would be rejected, or the draw would fail.
    {"epsilon_schedule": {"kind": "fixed"}},
    {"epsilon_schedule": {"kind": "fixed", "value": 1e-9}},
    {"epsilon_schedule": {"kind": "uniform", "low": 0.0}},
    {"epsilon_schedule": {"kind": "uniform", "low": 0.2, "high": 0.1}},
    {"epsilon_schedule": {"kind": "calibrated", "low": 0.2, "high": 0.1,
                          "fresh_total": 1.0, "repeat_total": 1.0}},
    # Bounds at EPSILON_MIN that round below it on the 2**-20 grid.
    {"epsilon_schedule": {"kind": "uniform", "low": 1e-6, "high": 1e-6}},
    # A preset name that is not a string, which the preset table cannot hash.
    {"scenario": ["error-150"]},
], ids=lambda change: "-".join(f"{k}={v!r}" for k, v in change.items()))
def test_config_rejects_badly_shaped_fields(change):
    with pytest.raises(ConfigInvalid):
        WorkloadConfig.from_dict({"n_writes": 10, **change})


def test_schedule_draws_up_to_the_largest_int64_bound():
    high = math.nextafter(2.0 ** 43, 0.0)  # 2**63 - 1024 grid steps
    cfg = _tiny_cfg(epsilon_schedule=EpsilonSchedule(kind="uniform", low=0.01, high=high))
    assert all(0.01 <= plan.eps_f <= high for plan in generate_workload(cfg).queries)


@pytest.mark.parametrize("field", ["fresh_total", "repeat_total"])
@pytest.mark.parametrize("total", [1e303, -1e303, 2.0 ** 1004])
def test_calibrated_total_must_fit_the_grid_as_a_float(field, total):
    """A calibrated total of 2**1024 grid steps or more is refused when the
    schedule is built, naming the total; the largest total below is kept,
    and the fit then refuses it as any total it cannot reach."""
    with pytest.raises(ConfigInvalid, match=re.escape(f"{field}={total!r}")):
        EpsilonSchedule(kind="calibrated", **{field: total})
    totals = {"fresh_total": 0.5, field: math.nextafter(2.0 ** 1004, 0.0)}
    sched = EpsilonSchedule(kind="calibrated", **totals)
    cfg = _tiny_cfg(n_queries=10, n_repeats=2, epsilon_schedule=sched)
    with pytest.raises(ConfigInvalid, match="cannot fit a total"):
        generate_workload(cfg)


def test_named_scenarios_resolve():
    for name in ("error-150", "budget-155", "throughput-755"):
        cfg = scenario_config(name, seed=42)
        assert cfg.seed == 42
    with pytest.raises(ConfigInvalid):
        scenario_config("missing")


def test_shipped_config_files_match_the_registry():
    import pathlib
    config_dir = pathlib.Path(__file__).resolve().parent.parent / "configs"
    for name in ("error-150", "budget-155", "throughput-755"):
        on_disk = json.loads((config_dir / f"{name}.json").read_text())
        assert WorkloadConfig.from_dict(on_disk) == scenario_config(name)


# ---------------------------------------------------------------------------
# workload generation

def test_default_workload_shape():
    schedule = generate_workload(WorkloadConfig(n_queries=0))
    assert len(schedule.writes) == 500
    customers = {tx.customer_name for _, tx in schedule.writes}
    assert customers == {"Bob", "Claire", "David", "Ali", "Alice"}
    assert all(1 <= tx.quantity <= 100 for _, tx in schedule.writes)


def test_zero_repeat_ratio_gives_distinct_categories():
    cfg = _tiny_cfg(n_repeats=0)
    schedule = generate_workload(cfg)
    keys = [plan.key for plan in schedule.queries]
    assert len(set(keys)) == len(keys)


def test_repeat_count_realized_exactly():
    for n_repeats, n in ((5, 20), (16, 31), (36, 40), (39, 40)):
        cfg = _tiny_cfg(n_writes=80, n_queries=n, n_repeats=n_repeats)
        schedule = generate_workload(cfg)
        repeats = [p for p in schedule.queries if p.repeat_of is not None]
        assert len(repeats) == n_repeats


def test_repeats_follow_their_source():
    schedule = generate_workload(_tiny_cfg(n_repeats=15, n_queries=30, n_writes=80))
    seen = set()
    for i, plan in enumerate(schedule.queries):
        if plan.repeat_of is not None:
            assert plan.repeat_of < i
            assert plan.key == schedule.queries[plan.repeat_of].key
            assert schedule.queries[plan.repeat_of].repeat_of is None or \
                schedule.queries[plan.repeat_of].key in seen
        seen.add(plan.key)


def test_workload_is_deterministic_per_seed():
    a = generate_workload(_tiny_cfg())
    b = generate_workload(_tiny_cfg())
    assert a.writes == b.writes
    assert a.queries == b.queries
    c = generate_workload(_tiny_cfg(seed=14))
    assert c.queries != a.queries


@pytest.mark.parametrize("seed", range(4))
def test_bulk_draws_equal_numpy_scalar_draws(seed):
    """``Generator.integers`` with an array of bounds, the call that
    ``generate_workload`` makes, gives the indices that ``int(rng.integers(b))``
    gives row by row, and leaves the generator in the same state. A bound of 1
    takes no word; 3 * 2**30 rejects a quarter of all words."""
    bounds = (1, 8, 100, 3 * 2 ** 30, 1)
    rows = 60
    bulk, scalar, plain = (np.random.default_rng(seed) for _ in range(3))
    for rng in (bulk, scalar, plain):
        rng.integers(5)  # PCG64 now holds half a 64-bit output for the next word
    expected = [[] for _ in bounds]
    for _ in range(rows):
        for column, b in zip(expected, bounds):
            column.append(int(scalar.integers(b)))
    assert bulk.integers(bounds, size=(rows, len(bounds))).T.tolist() == expected
    assert bulk.bit_generator.state == scalar.bit_generator.state
    # One word per slot would have left it elsewhere: some word was rejected.
    plain.integers(0, 2 ** 32, size=rows * 3, dtype=np.uint32)
    assert plain.bit_generator.state != scalar.bit_generator.state

    cfg = _tiny_cfg(seed=seed, n_queries=0, n_repeats=0)
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0]))
    writes = []
    for i in range(cfg.n_writes):
        p, c, q, u = (int(rng.integers(b)) for b in (
            len(bench.PRODUCTS), len(bench.COLORS), QUANTITY_MAX - QUANTITY_MIN + 1,
            len(bench.CUSTOMERS)))
        writes.append((i // cfg.write_rate, WriteTransaction(
            bench.PRODUCTS[p], bench.COLORS[c], QUANTITY_MIN + q, bench.CUSTOMERS[u])))
    assert generate_workload(cfg).writes == writes


def test_calibrated_epsilons_hit_exact_totals():
    cfg = scenario_config("budget-155")
    schedule = generate_workload(cfg)
    fresh = [p.eps_f for p in schedule.queries if p.repeat_of is None]
    reps = [p.eps_f for p in schedule.queries if p.repeat_of is not None]
    assert len(fresh) == 100 and len(reps) == 55
    assert all(0.01 <= e <= 0.12 for e in fresh + reps)
    # grid values sum exactly in float arithmetic
    assert sum(fresh) == round(5.7 / EPS_UNIT) * EPS_UNIT
    assert sum(reps) == round(3.2 / EPS_UNIT) * EPS_UNIT


def test_calibrated_infeasible_totals_rejected():
    cfg = _tiny_cfg(
        n_queries=10, n_repeats=2,
        epsilon_schedule=EpsilonSchedule(kind="calibrated", low=0.01, high=0.12,
                                         fresh_total=50.0, repeat_total=0.1),
    )
    with pytest.raises(ConfigInvalid):
        generate_workload(cfg)


# ---------------------------------------------------------------------------
# relative error

def test_relative_error_arithmetic():
    assert relative_error(100.0, 97.0) == pytest.approx(3.0)
    assert relative_error(50.0, 50.0) == 0.0


def test_relative_error_rejects_zero_actual():
    with pytest.raises(ZeroActual):
        relative_error(0.0, 5.0)


# ---------------------------------------------------------------------------
# scenario runs

def test_reuse_curve_never_exceeds_naive_and_tracks_repeats():
    report = run_scenario(_tiny_cfg())
    rows = report["rows"]
    repeats_so_far = 0
    for row in rows:
        assert row["cum_eps_reuse"] <= row["cum_eps_naive"] + 1e-12
        if row["repeat_of"] is not None:
            repeats_so_far += 1
        if repeats_so_far == 0:
            assert row["cum_eps_reuse"] == row["cum_eps_naive"]
        else:
            assert row["cum_eps_reuse"] < row["cum_eps_naive"]


def test_reuse_saves_exactly_the_repeated_budget():
    report = run_scenario(_tiny_cfg())
    repeated = [row["eps_f"] for row in report["rows"] if row["repeat_of"] is not None]
    expected = sum((exact(e) for e in repeated), Fraction(0))
    naive = exact(report["naive_eps_sum"])
    reuse = exact(report["reuse_eps_sum"])
    assert naive - reuse == expected


def test_receipts_csv_has_one_row_per_submission():
    cfg = _tiny_cfg()
    report = run_scenario(cfg)
    for mode in ("naive", "reuse"):
        lines = report["artifacts"][f"receipts_{mode}.csv"].splitlines()
        assert lines[0] == ("tx_id,kind,status,submit_tick,commit_tick,commit_height,"
                            "latency,reject_reason")
        assert len(lines) == 1 + cfg.n_writes + cfg.n_queries


def test_spend_log_csv_columns():
    report = run_scenario(_tiny_cfg())
    for mode in ("naive", "reuse"):
        lines = report["artifacts"][f"budget_events_{mode}.csv"].splitlines()
        assert lines[0] == "query_id,requester_id,epsilon_f,epsilon_rem,reused_flag"
        rows = [line.split(",") for line in lines[1:]]
        # One event per query, fresh or reused, with each float as its repr.
        assert [r[:3] for r in rows] == [[row["tx_id"], row["requester"], repr(row["eps_f"])]
                                         for row in report["rows"]]
        assert [r[4] for r in rows] == [str(int(mode == "reuse" and row["reused"]))
                                        for row in report["rows"]]
        assert float(rows[-1][3]) == pytest.approx(5.0 - report[mode]["eps_sum"])


def test_zero_repeats_means_zero_savings():
    report = run_scenario(_tiny_cfg(n_repeats=0))
    assert report["savings_pct"] == 0.0
    assert report["naive_eps_sum"] == report["reuse_eps_sum"]


def test_scenario_reports_are_deterministic():
    a = run_scenario(_tiny_cfg())
    b = run_scenario(_tiny_cfg())
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def test_unanswered_pass_reports_no_accuracy():
    # epsilon_t 1.0 cannot pay for one query at 2.0, so every query is rejected.
    report = run_scenario(WorkloadConfig(
        n_writes=20, n_queries=3,
        epsilon_schedule=EpsilonSchedule(kind="fixed", value=2.0)))
    for mode in ("naive", "reuse"):
        assert report[mode]["rejected"] == 3
        assert report[mode]["mean_relative_error"] is None
        assert report[mode]["accuracy"] is None


@functools.cache
def _shipped_report(name: str) -> dict:
    """The report of a shipped scenario at its seed, 7; tests only read it."""
    return run_scenario(scenario_config(name))


def test_budget_155_hits_published_totals():
    report = _shipped_report("budget-155")
    assert report["naive_eps_sum"] == pytest.approx(8.9, abs=0.05)
    assert report["reuse_eps_sum"] == pytest.approx(5.7, abs=0.05)
    assert report["savings_pct"] == pytest.approx(35.96, abs=1.0)
    assert len(report["rows"]) == 155
    # every submission either commits or is served from the cache
    assert report["reuse"]["committed"] + report["reuse"]["cached"] == 500 + 155


def test_budget_155_query_log_holds_every_query():
    from dpledger.bench import _execute
    cfg = scenario_config("budget-155")
    res = _execute(cfg, generate_workload(cfg), reuse_enabled=True)
    events = res.net.accountant.events
    assert len(events) == 155
    assert sum(1 for e in events if not e.reused) == 100
    # Only fresh answers reach the chain, which is the query log; repeats
    # are reuse events.
    for peer in res.net.peers.values():
        log = [env.effect.record for block in peer.chain
               for env in block.envelopes if env.effect is not None]
        assert len(log) == 100
        assert all(not r.response.reused and r.epsilon_spent > 0 for r in log)


def test_throughput_755_scenario_runs_with_rate_series():
    report = _shipped_report("throughput-755")
    rows = report["performance"]
    assert [r["rate"] for r in rows] == [10, 20, 30, 40, 50]
    assert all(r["query_committed"] == 755 for r in rows)
    tp = [r["query_throughput"] for r in rows]
    assert all(a < b for a, b in zip(tp, tp[1:]))


def test_throughput_755_draws_its_schedule_once(monkeypatch):
    """The rate scan re-ticks the schedule of the naive and reuse passes
    instead of drawing it again."""
    drawn = []
    generate = bench.generate_workload

    def counted(cfg):
        drawn.append(cfg)
        return generate(cfg)

    monkeypatch.setattr(bench, "generate_workload", counted)
    run_scenario(scenario_config("throughput-755"))
    assert len(drawn) == 1


def test_rate_scan_reticks_one_schedule():
    """A rate sets only ticks: the schedule ``performance_scan`` re-ticks is
    the one drawn at that rate."""
    cfg = scenario_config("throughput-755")
    schedule = generate_workload(cfg)
    for rate in cfg.rate_sweep:
        assert _at_rate(schedule, rate) == generate_workload(
            replace(cfg, write_rate=rate, query_rate=rate, rate_sweep=None))


def test_sweep_errors_decrease_and_match_formula():
    result = sweep(scenario_config("error-150"), [1, 2, 3])
    errs = [row["mean_relative_error"] for row in result["rows"]]
    assert all(a > b for a, b in zip(errs, errs[1:]))
    for row in result["rows"]:
        diff = abs(row["mean_relative_error"] - row["expected_error"])
        assert diff <= 3 * row["expected_error_se"]


def test_error_150_accuracy_matches_the_analytic_model():
    """The paper's accuracy claim as error-150 reproduces it at ε = 1: the
    measured mean relative error of the reuse pass lies within 3 standard
    errors of mean(100 * scale / a), the expectation ``sweep`` computes."""
    measured = _shipped_report("error-150")["reuse"]["mean_relative_error"]
    row = sweep(scenario_config("error-150"), [1.0])["rows"][0]
    assert row["per_query_epsilon"] == 1.0
    assert abs(measured - row["expected_error"]) <= 3 * row["expected_error_se"]


def test_sweep_expects_each_query_at_its_own_noise_scale():
    # A mixed stream: COUNT answers carry noise of scale 1/ε, SUM answers
    # QUANTITY_MAX/ε, and the expectation must weigh each at its own scale.
    cfg = replace(scenario_config("throughput-755"), n_writes=300, n_queries=150,
                  rate_sweep=None)
    row = sweep(cfg, [1.0])["rows"][0]
    eps = row["per_query_epsilon"]
    schedule = generate_workload(replace(cfg, epsilon_t=1.0))
    state = WorldState()
    for _, tx in schedule.writes:
        state.apply_write(tx)
    terms = []
    for plan in schedule.queries:
        count, total = state.aggregate_cell(plan.key.customer_name, plan.key.product_name,
                                            plan.key.color)
        exact_value, scale = ((count, 1.0 / eps) if plan.key.aggregate is Aggregate.COUNT
                              else (total, QUANTITY_MAX / eps))
        if exact_value:
            terms.append(100.0 * scale / exact_value)
    assert any(plan.key.aggregate is Aggregate.COUNT for plan in schedule.queries)
    assert row["noise_scale"] == pytest.approx(QUANTITY_MAX / eps, rel=1e-12)
    assert row["expected_error"] == pytest.approx(sum(terms) / len(terms), rel=1e-12)
    assert row["expected_error_se"] == pytest.approx(
        math.sqrt(sum(t * t for t in terms)) / len(terms), rel=1e-12)


# ---------------------------------------------------------------------------
# export

def test_export_report_files_and_consistency(tmp_path):
    report = run_scenario(_tiny_cfg())
    paths = export_report(report, tmp_path / "out")
    names = {p.name for p in paths}
    assert {"report.json", "summary.json", "budget_curve.csv",
            "relative_errors.csv"} <= names

    # summary savings recomputes from the last budget-curve row
    curve_lines = (tmp_path / "out" / "budget_curve.csv").read_text().splitlines()
    last = curve_lines[-1].split(",")
    naive, reuse = float(last[1]), float(last[2])
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert summary["savings_pct"] == pytest.approx((naive - reuse) / naive * 100.0)


def test_re_export_is_byte_identical(tmp_path):
    report = run_scenario(_tiny_cfg())
    export_report(report, tmp_path / "a")
    loaded = json.loads((tmp_path / "a" / "report.json").read_text())
    export_report(loaded, tmp_path / "b")
    for path in sorted((tmp_path / "a").iterdir()):
        assert path.read_bytes() == (tmp_path / "b" / path.name).read_bytes()


def test_sweep_export_writes_one_row_per_epsilon(tmp_path):
    result = sweep(scenario_config("error-150", seed=3), [1, 2])
    export_sweep(result, tmp_path)
    lines = (tmp_path / "error_vs_epsilon.csv").read_text().splitlines()
    assert len(lines) == 3
    assert lines[0].startswith("epsilon_t,")


@pytest.mark.parametrize("epsilons", [[], [float("nan")], [0.0], [1.0, -2.0],
                                      [float("inf")], [True]],
                         ids=["empty", "nan", "zero", "negative", "inf", "bool"])
def test_sweep_rejects_a_bad_epsilon_list(epsilons):
    with pytest.raises(ConfigInvalid):
        sweep(WorkloadConfig(n_writes=20, n_queries=3), epsilons)


def test_performance_scan_rows():
    cfg = _tiny_cfg(rate_sweep=(5, 10))
    report = run_scenario(cfg)
    rows = report["performance"]
    assert [r["rate"] for r in rows] == [5, 10]
    for row in rows:
        assert row["write_committed"] == 40
        assert row["query_throughput"] > 0


# Digests of every file ``export_report`` writes for ``_GOLDEN_CFG``; a change
# to the report's fields, their order or their float formatting moves them.
_GOLDEN_CFG = dict(n_writes=60, n_queries=10, n_repeats=3, epsilon_t=5.0,
                   rate_sweep=(5, 10), seed=3)
_GOLDEN_SHA256 = {
    "budget_curve.csv": "5f237c8c19af7bbf7a444428a7aa6dcaa3f3af1fc25947c6a7e5d9945388ff51",
    "budget_events_naive.csv": "41dfa5563c1d4f9651df70deaac7030ab62413774b71dbd9692e7966c87710a9",
    "budget_events_reuse.csv": "34e1bdf935d1b6a5972b50dde0d4d81ad5b3f5acc2860461d8f11cd4237e8818",
    "performance.csv": "90abef57f764d0d3518ad29ea95e705321500c5ac14fd2bd8faae9c14d0538bd",
    "receipts_naive.csv": "069429ef84c4468d4d0604c6c7dbbf00d7195cfa09fc8ecf50a5cb874b754e28",
    "receipts_reuse.csv": "d2a398a4e323983d669c536932d178d827a633f2fbcab799618d2902d9e26507",
    "relative_errors.csv": "b1a69dfc0c26b4eb72ce4c4f9f753d682db01cee65f7c256ec89add90ed5e204",
    "report.json": "0a24bb8d484427a9c1e736cee9609df41c4ded8131700e959569e75e6badd5f7",
    "summary.json": "8d2736491323e29521b35135f5b7ab2c7a0fd0014ca8f5b19fd805ce6938b618",
}


def test_export_report_golden_digests(tmp_path):
    paths = export_report(run_scenario(WorkloadConfig(**_GOLDEN_CFG)), tmp_path)
    digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in paths}
    assert digests == _GOLDEN_SHA256


# Digests of every file ``export_report`` writes for each shipped scenario at
# seed 7, and of the files ``export_sweep`` writes for error-150 at epsilons
# 1, 2 and 3: the schedules are drawn once, in bulk, and must give the outputs
# of numpy's scalar draws.
_SHIPPED_REPORT_SHA256 = {
    "error-150": {
        "report.json": "6119d04c1be7a135e6341cd5ea0d02349847973d68cf02791dda07e2d8c3ae28",
        "summary.json": "369517162ff345a0aff198e6781434ebf062f4e8f1a62c1a07236eb76fde5ae6",
        "budget_curve.csv": "a1bf9b6fbe41648697af28f68d3fbe0dc77fa77122c1a4b280110c2fd0f86961",
        "relative_errors.csv": "3171e456a33aa68f22ed6ce89a40128e779579d518d191595e15f63185638106",
        "budget_events_naive.csv": "e11616a213221a13937b4be5fe6cf3cf365aae5c3a9dbcb8af9f93ed636c95b5",
        "budget_events_reuse.csv": "e11616a213221a13937b4be5fe6cf3cf365aae5c3a9dbcb8af9f93ed636c95b5",
        "receipts_naive.csv": "4b32c6aef5ecf786933684b05044ea5c021ee5f8de25faa34b40f189158fec37",
        "receipts_reuse.csv": "4b32c6aef5ecf786933684b05044ea5c021ee5f8de25faa34b40f189158fec37",
    },
    "budget-155": {
        "report.json": "2121165d0af15290f7127ea95263d638990887167f873ed2a17cfdce816759fa",
        "summary.json": "59e9f2560361ed3bb0433428c336e818aa4ce70b7f37624ae528c59db0ce837d",
        "budget_curve.csv": "3e91f21665b601c5f07c7352229d8efef170b4a218f7f21f86b15d54cf5c4d30",
        "relative_errors.csv": "69982566d2f85db8fd0e73b1458f93ebbe44342a7b8a98686cef34d318e2d365",
        "budget_events_naive.csv": "d347723dbc091fae1993ab2fe1d4dce7d196b06e4e2d13a5cee282c7978c0247",
        "budget_events_reuse.csv": "3251df47c0c3e28b5e948ea14e675529e00416d5bd93ea1d24107e96c17618cf",
        "receipts_naive.csv": "d581b32abfd8cd58460b8b73055c9f4b0b1fcf73953330edf3ddd30b4fd19965",
        "receipts_reuse.csv": "0d5bd66c5fbc91c5ffc0690a2a5e2a4dd09df596a17fcda14cc3437a457ad4ea",
    },
    "throughput-755": {
        "report.json": "d590660c01dd85d8688ec1f2cd444e426b8825add71ab66714f8fff8250dc915",
        "summary.json": "f34c00a06ec9222a46ed9933a08c58af56ad58c5bb4d31781175805c368d24bc",
        "budget_curve.csv": "cb2701d44a44ee8ac2573b5874a530a86577d00fe95444f6dc123458bd519a9c",
        "relative_errors.csv": "8555897eeba3990553036018224cf99a757e12975fab4cd281eb81d4242cb803",
        "performance.csv": "7ab1660883fe7e2ca220f3640c82ed47e6cabecbf3878e153ed8b4d77787feff",
        "budget_events_naive.csv": "b6ee6afe7e7065650beb411ebb6899167e5a148f788bc0166af8f5c12a6be778",
        "budget_events_reuse.csv": "b6ee6afe7e7065650beb411ebb6899167e5a148f788bc0166af8f5c12a6be778",
        "receipts_naive.csv": "8318f4ceb2178ddad86b0d06f095edbf154ed82f6f6963cd279e58706219de39",
        "receipts_reuse.csv": "8318f4ceb2178ddad86b0d06f095edbf154ed82f6f6963cd279e58706219de39",
    },
}
_ERROR_150_SWEEP_SHA256 = {
    "sweep.json": "46bfc41f71d9545085d6e70accef2f0d0d9b5ed9fa7b28c4a27c2812d96c9a97",
    "error_vs_epsilon.csv": "65ab24f5e579e7a213aa45db6c060e2335a2410b41237ee7e14f99ad43ad3611",
}


@pytest.mark.parametrize("name", sorted(_SHIPPED_REPORT_SHA256))
def test_shipped_report_digests(tmp_path, name):
    paths = export_report(_shipped_report(name), tmp_path)
    digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in paths}
    assert digests == _SHIPPED_REPORT_SHA256[name]


def test_error_150_sweep_digests(tmp_path):
    paths = export_sweep(sweep(scenario_config("error-150"), [1, 2, 3]), tmp_path)
    digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in paths}
    assert digests == _ERROR_150_SWEEP_SHA256


# Digests of the chains a run builds at seed 7: the files ``export_ledger``
# writes (``dpledger init-ledger``) for each scenario, and budget-155's naive
# and reuse chains as ``export_transactions`` prints them, which bind every
# query effect. A change to a tx id, an endorsement or a block hash moves
# them. The three scenarios draw the same 500 writes at seed 7, so their
# ledgers differ only in the genesis block, which binds each scenario's ε_t.
_INIT_LEDGER_SHA256 = {
    "error-150": {
        "ledger.jsonl": "b54a8d51c45b50f976f3d9dada255b115bfe5eb7a2920d7be4579f7c6cd0c7d2",
        "blocks.jsonl": "9cd77c0cf706e3849d8a666242d300e54cadaa122c1a19cd714c8250d3d42505",
    },
    "budget-155": {
        "ledger.jsonl": "a38a7f8c5f3fcb9fa028fa3d30de35ee06e6beacd112475e26d8d02b330c2c01",
        "blocks.jsonl": "8558e45e5afcc86f5326a172ba84930c8b0d6899b55cddfbe0a5a107acc2fb9f",
    },
    "throughput-755": {
        "ledger.jsonl": "4726c08ea3a3c543114702e139aec91d3d9eb8922056dba6ce93fd1536e72efb",
        "blocks.jsonl": "93cca52ce9e6e222d062aded776748525022b7f0131218e57f031001d9f1399a",
    },
}
_BUDGET_155_CHAIN_SHA256 = {
    "naive": "7761a8c4acd8beeb248f9a827216b3b7ce91b5ab00054fae3d060f6f1c15c0e4",
    "reuse": "d6b08fbf0affbd544387d9e0e4a5d3456181226cd7d452a85eb8511f022c7b74",
}


@pytest.mark.parametrize("name", bench.SCENARIO_NAMES)
def test_init_ledger_digests(tmp_path, name):
    paths = bench.export_ledger(scenario_config(name), tmp_path)
    digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in paths}
    assert digests == _INIT_LEDGER_SHA256[name]


def test_budget_155_chain_digests():
    cfg = scenario_config("budget-155")
    schedule = generate_workload(cfg)
    digests = {}
    for mode in _BUDGET_155_CHAIN_SHA256:
        chain = bench._execute(cfg, schedule, mode == "reuse").net.chain
        digests[mode] = hashlib.sha256(
            export_transactions(chain).encode("utf-8")).hexdigest()
    assert digests == _BUDGET_155_CHAIN_SHA256
