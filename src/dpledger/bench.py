"""Workload generation, scenario execution, metric computation, and export.

A scenario runs the full network pipeline twice on identical schedules
and seeds: once with the cached-answer path disabled (fresh noise for
every query, the traditional baseline) and once with budget reuse
enabled. The report carries per-query relative errors, both cumulative
budget curves, the savings percentage, and flow metrics.

Per-query budget values are emitted on a dyadic grid (multiples of
2**-20) so that cumulative float sums stay exact.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import asdict, dataclass, replace
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import codec
from .adversary import (
    DEFAULT_TOLERANCE,
    AttackReport,
    BackgroundKnowledge,
    composition_attack,
    linking_attack,
    linking_trials,
    repeated_query_averaging,
)
from .budget import allocate_equal
from .errors import BudgetExhausted, ConfigInvalid, IoFailure, ZeroActual
from .laplace import EPSILON_MIN, check_epsilon, laplace_scale, sensitivity
from .ledger import CHANNEL_ID, WorldState, export_blocks, export_transactions, write_text
from .network import Network, ReceiptStatus
from .transactions import (
    QUANTITY_MAX,
    QUANTITY_MIN,
    Aggregate,
    CategoryKey,
    QueryTransaction,
    WriteTransaction,
    category_label,
)

# Grid step for generated epsilon values; float sums of grid multiples
# this small are exact up to budgets far beyond any scenario here.
EPS_UNIT = 2.0 ** -20
# numpy draws grid steps as int64s, so a drawn bound has fewer than 2**63 of them.
EPS_DRAW_MAX = 2.0 ** 63 * EPS_UNIT


def _units(value: float) -> int:
    """``value`` in grid steps, rounded to the nearest."""
    return round(value / EPS_UNIT)


# The write vocabulary: each write draws one of each.
CUSTOMERS = ("Bob", "Claire", "David", "Ali", "Alice")
PRODUCTS = (
    "bolt", "bearing", "gasket", "valve", "sensor", "cable", "motor",
    "filter", "switch", "pump", "relay", "gear", "clamp", "fuse",
    "hinge", "nozzle", "washer", "spring", "seal", "rotor",
)
COLORS = ("red", "blue", "green", "black", "white", "yellow", "orange", "grey")

LOADER_CLIENT = "loader-app"
REQUESTER = "distributor-a"


def _check_types(record) -> None:
    """Raise ``ConfigInvalid`` naming each field of ``record`` that its annotation
    does not fit: a bool is not a number, a float is finite."""
    bad = [name for name, annotation, _ in codec.fields(type(record))
           if not codec.conforms(getattr(record, name), annotation)]
    if bad:
        raise ConfigInvalid(f"wrongly typed or non-finite config fields: {bad}")


@dataclass(frozen=True)
class EpsilonSchedule:
    """How per-query budgets are assigned across the query stream; checked
    when it is built.

    kinds:
      equal      - threshold split equally across the stream
      fixed      - one explicit value for every query
      uniform    - seeded grid draws in [low, high]
      calibrated - grid draws adjusted so fresh queries sum to
                   fresh_total and repeats to repeat_total exactly
    """

    kind: str = "equal"
    value: float = 0.0
    low: float = 0.01
    high: float = 0.12
    fresh_total: float = 0.0
    repeat_total: float = 0.0

    def __post_init__(self) -> None:
        _check_types(self)
        if self.kind not in ("equal", "fixed", "uniform", "calibrated"):
            raise ConfigInvalid(f"unknown epsilon schedule {self.kind!r}")
        if self.kind == "fixed" and self.value < EPSILON_MIN:
            raise ConfigInvalid(f"fixed epsilon schedule needs value >= {EPSILON_MIN}, "
                                f"got {self.value!r}")
        # The bounds as the draws see them: whole grid steps, which fit an int64.
        if self.kind in ("uniform", "calibrated") and not (
                max(abs(self.low), abs(self.high)) < EPS_DRAW_MAX
                and EPSILON_MIN <= _units(self.low) * EPS_UNIT <= _units(self.high) * EPS_UNIT):
            raise ConfigInvalid(
                f"{self.kind} epsilon schedule needs {EPSILON_MIN} <= low <= high < 2**43 "
                f"on the 2**-20 grid, got low={self.low!r}, high={self.high!r}")


@dataclass(frozen=True)
class WorkloadConfig:
    """What a scenario varies; checked when it is built, by ``replace`` too."""

    name: str = "custom"
    n_writes: int = 500
    n_queries: int = 150
    n_repeats: int = 0
    sum_only: bool = True
    epsilon_t: float = 1.0
    epsilon_schedule: EpsilonSchedule = EpsilonSchedule()
    write_rate: int = 25
    query_rate: int = 25
    rate_sweep: Optional[Tuple[int, ...]] = None
    seed: int = 7

    def __post_init__(self) -> None:
        _check_types(self)
        if self.seed < 0:
            raise ConfigInvalid(f"seed must be >= 0, got {self.seed}")
        if self.n_writes < 1:
            raise ConfigInvalid("n_writes must be >= 1")
        if self.n_queries < 0:
            raise ConfigInvalid("n_queries must be >= 0")
        if self.n_repeats < 0:
            raise ConfigInvalid("n_repeats must be >= 0")
        if self.n_queries > 0 and self.n_repeats > self.n_queries - 1:
            raise ConfigInvalid(
                f"{self.n_repeats} repeats impossible for {self.n_queries} queries "
                "(the first query of a category is always fresh)"
            )
        if self.write_rate < 1 or self.query_rate < 1:
            raise ConfigInvalid("transaction rates must be positive")
        if self.rate_sweep is not None and any(r < 1 for r in self.rate_sweep):
            raise ConfigInvalid("rate_sweep entries must be positive")
        if self.epsilon_t <= 0:
            raise ConfigInvalid("epsilon_t must be positive")

    def to_dict(self) -> dict:
        """Every field, the schedule as a nested dict; tuples stay tuples,
        which JSON writes as arrays."""
        return asdict(self)

    @classmethod
    def from_dict(cls, d) -> "WorkloadConfig":
        """A config from its JSON object; ``"scenario"`` names a shipped
        preset whose fields the others override."""
        if isinstance(d, dict) and "scenario" in d:
            d = {**scenario_config(d["scenario"]).to_dict(),
                 **{k: v for k, v in d.items() if k != "scenario"}}
        return codec.from_json(cls, d, ConfigInvalid, "config")


@dataclass(frozen=True)
class QueryPlan:
    """One scheduled query with its budget allocation and repeat linkage;
    ``key`` is the object ``tx.key``."""

    tick: int
    tx: QueryTransaction
    eps_f: float
    key: CategoryKey
    repeat_of: Optional[int]


@dataclass
class WorkloadSchedule:
    writes: List[Tuple[int, WriteTransaction]]
    queries: List[QueryPlan]


def _fit_units(rng: np.random.Generator, count: int, lo_u: int, hi_u: int,
               target_u: int) -> List[int]:
    """Grid draws in [lo_u, hi_u] adjusted to hit target_u exactly."""
    if not count * lo_u <= target_u <= count * hi_u:
        raise ConfigInvalid(
            f"cannot fit a total of {target_u * EPS_UNIT:.6f} with {count} "
            f"values in [{lo_u * EPS_UNIT:.6f}, {hi_u * EPS_UNIT:.6f}]"
        )
    units = [int(u) for u in rng.integers(lo_u, hi_u + 1, size=count)]
    diff = target_u - sum(units)
    i = 0
    while diff != 0:
        u = units[i]
        step = min(diff, hi_u - u) if diff > 0 else max(diff, lo_u - u)
        units[i] = u + step
        diff -= step
        i = (i + 1) % count
    return units


def _epsilon_values(cfg: WorkloadConfig, rng: np.random.Generator,
                    repeat_slots: set) -> List[float]:
    sched = cfg.epsilon_schedule
    n = cfg.n_queries
    if sched.kind == "equal":
        share = allocate_equal(cfg.epsilon_t, n)
        return [share] * n
    if sched.kind == "fixed":
        return [float(sched.value)] * n
    lo_u = _units(sched.low)
    hi_u = _units(sched.high)
    if sched.kind == "uniform":
        return [int(u) * EPS_UNIT for u in rng.integers(lo_u, hi_u + 1, size=n)]
    # calibrated: fresh and repeated queries hit separate exact totals
    fresh_idx = [i for i in range(n) if i not in repeat_slots]
    rep_idx = [i for i in range(n) if i in repeat_slots]
    fresh_units = _fit_units(rng, len(fresh_idx), lo_u, hi_u,
                             _units(sched.fresh_total))
    rep_units = _fit_units(rng, len(rep_idx), lo_u, hi_u,
                           _units(sched.repeat_total)) if rep_idx else []
    values = [0.0] * n
    for i, u in zip(fresh_idx, fresh_units):
        values[i] = u * EPS_UNIT
    for i, u in zip(rep_idx, rep_units):
        values[i] = u * EPS_UNIT
    return values


def _candidate_keys(cfg: WorkloadConfig, state: WorldState, n: int) -> List[CategoryKey]:
    """The ``n`` non-empty aggregate/attribute-cell combinations with the
    largest answers, ties in label order; all of them if there are fewer.

    Ordering by magnitude keeps the query stream on the aggregates a
    supply-chain requester actually asks for (totals and marginals
    before sparse three-attribute cells). Only the chosen ones become keys.
    """
    aggregates = (Aggregate.SUM,) if cfg.sum_only else (Aggregate.SUM, Aggregate.COUNT)
    ranked = [
        (-total[1 if agg is Aggregate.SUM else 0], category_label(agg, *cell), agg, cell)
        for agg in aggregates
        for cell, total in state.cells()
    ]
    ranked.sort(key=lambda item: (item[0], item[1]))
    return [CategoryKey(agg, *cell) for _, _, agg, cell in ranked[:n]]


def generate_workload(cfg: WorkloadConfig) -> WorkloadSchedule:
    """Deterministic transaction schedule: write round, then query round.

    The query stream realizes the configured repeat count exactly, and
    every repeat lands after the first occurrence of its category.
    """
    rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, 0]))

    # Each write draws its product, colour, quantity and customer, in that order,
    # as scalar ``rng.integers(b)`` calls would; the query round goes on from
    # the state they leave.
    columns = rng.integers((len(PRODUCTS), len(COLORS),
                            QUANTITY_MAX - QUANTITY_MIN + 1, len(CUSTOMERS)),
                           size=(cfg.n_writes, 4)).T.tolist()
    writes: List[Tuple[int, WriteTransaction]] = [
        (i // cfg.write_rate, WriteTransaction(PRODUCTS[p], COLORS[c],
                                               QUANTITY_MIN + q, CUSTOMERS[u]))
        for i, p, c, q, u in zip(range(cfg.n_writes), *columns)
    ]

    if cfg.n_queries == 0:
        return WorkloadSchedule(writes=writes, queries=[])

    written = WorldState()
    written.apply_writes(tx for _, tx in writes)
    n_repeats = cfg.n_repeats
    n_fresh = cfg.n_queries - n_repeats
    selected = _candidate_keys(cfg, written, n_fresh)
    if n_fresh > len(selected):
        raise ConfigInvalid(
            f"need {n_fresh} distinct query categories but the workload "
            f"only produced {len(selected)}"
        )
    rng.shuffle(selected)

    repeat_slots: set = set()
    if n_repeats > 0:
        repeat_slots = set(
            int(i) for i in rng.choice(np.arange(1, cfg.n_queries),
                                       size=n_repeats, replace=False)
        )
    eps_values = _epsilon_values(cfg, rng, repeat_slots)

    queries: List[QueryPlan] = []
    fresh_iter = iter(selected)
    emitted: List[Tuple[int, CategoryKey]] = []
    for i in range(cfg.n_queries):
        if i in repeat_slots:
            src_pos = int(rng.integers(len(emitted)))
            src_index, key = emitted[src_pos]
            repeat_of = src_index
        else:
            key = next(fresh_iter)
            repeat_of = None
            emitted.append((i, key))
        queries.append(QueryPlan(
            tick=i // cfg.query_rate, tx=QueryTransaction(key, REQUESTER),
            eps_f=eps_values[i], key=key, repeat_of=repeat_of,
        ))
    return WorkloadSchedule(writes=writes, queries=queries)


def relative_error(a: float, a_prime: float) -> float:
    """Accuracy cost of a perturbed answer, in percent: |a - a'| / a * 100."""
    if a == 0:
        raise ZeroActual("relative error is undefined for an actual value of 0")
    return abs(a - a_prime) / a * 100.0


# ---------------------------------------------------------------------------
# scenario execution

@dataclass
class ExecResult:
    net: Network
    query_receipts: list

    @property
    def channel(self):
        return self.net.channels[CHANNEL_ID]


def _build_network(cfg: WorkloadConfig, reuse_enabled: bool) -> Network:
    net = Network(epsilon_t=cfg.epsilon_t, reuse_enabled=reuse_enabled, seed=cfg.seed)
    net.register_client(LOADER_CLIENT)
    net.register_client(REQUESTER)
    return net


def _execute(cfg: WorkloadConfig, schedule: WorkloadSchedule,
             reuse_enabled: bool) -> ExecResult:
    """Drive one full pipeline pass: write round, drain, query round, drain."""
    net = _build_network(cfg, reuse_enabled)
    for tick, tx in schedule.writes:
        while net.clock < tick:
            net.tick()
        net.submit(LOADER_CLIENT, tx)
    net.run_until_idle()

    base = net.clock
    query_receipts = []
    for plan in schedule.queries:
        while net.clock < base + plan.tick:
            net.tick()
        receipt = net.submit(plan.tx.requester_id, plan.tx, eps_f=plan.eps_f)
        query_receipts.append(receipt)
    net.run_until_idle()
    return ExecResult(net=net, query_receipts=query_receipts)


def _committed_state(net: Network) -> WorldState:
    """The channel's committed world state, as its first member holds it."""
    channel = net.channels[CHANNEL_ID]
    return net.peers[channel.members[0]].states[CHANNEL_ID]


def _flow(receipts, clock: int) -> dict:
    """Committed count, committed per tick, and mean and max commit latency
    of ``receipts``."""
    latencies = [r.latency for r in receipts if r.status is ReceiptStatus.COMMITTED]
    return {
        "committed": len(latencies),
        "throughput": len(latencies) / max(clock, 1),
        "mean_latency": float(np.mean(latencies)) if latencies else 0.0,
        "max_latency": int(max(latencies)) if latencies else 0,
    }


def _mode_metrics(res: ExecResult, errors: List[Optional[float]]) -> dict:
    """Flow, budget and accuracy of one pass; no accuracy when no error was measured."""
    receipts = res.net.receipts
    measured = [e for e in errors if e is not None]
    mean_err = float(np.mean(measured)) if measured else None
    return {
        **_flow(receipts, res.net.clock),
        "cached": sum(1 for r in receipts if r.status is ReceiptStatus.CACHED),
        "rejected": sum(1 for r in receipts if r.status is ReceiptStatus.REJECTED),
        "elapsed_ticks": res.net.clock,
        "eps_sum": res.channel.accountant.accumulated(),
        "mean_relative_error": mean_err,
        "accuracy": None if mean_err is None else 100.0 - mean_err,
    }


def _error(exact: float, response) -> Optional[float]:
    """Relative error of one answer in percent; None when the query went
    unanswered or its exact answer is 0."""
    if response is None or exact == 0:
        return None
    return relative_error(exact, response.value)


def run_scenario(cfg: WorkloadConfig) -> dict:
    """Run naive and reuse passes on one schedule and assemble the report."""
    schedule = generate_workload(cfg)
    passes = {"naive": _execute(cfg, schedule, reuse_enabled=False),
              "reuse": _execute(cfg, schedule, reuse_enabled=True)}

    state = _committed_state(passes["reuse"].net)

    # Built once, so that every row shares its key strings.
    columns = {mode: (f"value_{mode}", f"rel_err_{mode}", f"cum_eps_{mode}")
               for mode in passes}
    rows: List[dict] = []
    cum_eps = dict.fromkeys(passes, 0.0)
    for i, plan in enumerate(schedule.queries):
        exact_value = state.answer(plan.key)
        reuse_receipt = passes["reuse"].query_receipts[i]
        row = {
            "index": i,
            "tx_id": reuse_receipt.tx_id,
            "category": plan.key.label(),
            "requester": plan.tx.requester_id,
            "eps_f": plan.eps_f,
            "repeat_of": plan.repeat_of,
            "exact": exact_value,
            "reused": reuse_receipt.status is ReceiptStatus.CACHED,
        }
        for mode, res in passes.items():
            receipt = res.query_receipts[i]
            response = receipt.response
            if response is not None and receipt.status is not ReceiptStatus.CACHED:
                cum_eps[mode] += response.epsilon_used
            value_key, err_key, cum_key = columns[mode]
            row[value_key] = response.value if response is not None else None
            row[err_key] = _error(exact_value, response)
            row[cum_key] = cum_eps[mode]
        rows.append(row)

    metrics = {mode: _mode_metrics(res, [row[columns[mode][1]] for row in rows])
               for mode, res in passes.items()}
    naive_sum = metrics["naive"]["eps_sum"]
    reuse_sum = metrics["reuse"]["eps_sum"]
    savings = 0.0 if naive_sum == 0 else (naive_sum - reuse_sum) / naive_sum * 100.0

    return {
        "config": cfg.to_dict(),
        "rows": rows,
        **metrics,
        "naive_eps_sum": naive_sum,
        "reuse_eps_sum": reuse_sum,
        "savings_pct": savings,
        "performance": (performance_scan(cfg, schedule, cfg.rate_sweep)
                        if cfg.rate_sweep else []),
        "artifacts": {
            **{f"budget_events_{mode}.csv": _budget_events_csv(res.channel.accountant.events)
               for mode, res in passes.items()},
            **{f"receipts_{mode}.csv": _receipts_csv(res.net.receipts)
               for mode, res in passes.items()},
        },
    }


def _at_rate(schedule: WorkloadSchedule, rate: int) -> WorkloadSchedule:
    """``schedule`` with its i-th write and its i-th query at tick i // rate."""
    return WorkloadSchedule(
        writes=[(i // rate, tx) for i, (_, tx) in enumerate(schedule.writes)],
        queries=[replace(plan, tick=i // rate) for i, plan in enumerate(schedule.queries)],
    )


def performance_scan(cfg: WorkloadConfig, schedule: WorkloadSchedule,
                     rates: Sequence[int]) -> List[dict]:
    """Throughput/latency per submission rate, split by transaction kind.

    A rate sets only ticks and draws no random number, so ``schedule``, the
    one drawn for ``cfg``, is re-ticked for each rate."""
    out = []
    for rate in rates:
        res = _execute(cfg, _at_rate(schedule, rate), reuse_enabled=True)
        row: dict = {"rate": rate, "elapsed_ticks": res.net.clock}
        for kind in ("write", "query"):
            flow = _flow([r for r in res.net.receipts if r.kind == kind], res.net.clock)
            for name in ("committed", "throughput", "mean_latency"):
                row[f"{kind}_{name}"] = flow[name]
        out.append(row)
    return out


def _sweep_point(cfg: WorkloadConfig, eps_t: float) -> Tuple[float, WorkloadConfig]:
    """The per-query ε and the config of the sweep point ``eps_t``."""
    if cfg.epsilon_schedule.kind == "fixed":
        per_query = eps_t
        sub = replace(
            cfg,
            epsilon_schedule=replace(cfg.epsilon_schedule, value=per_query),
            epsilon_t=per_query * (cfg.n_queries + 1),
            rate_sweep=None,
        )
    elif cfg.epsilon_schedule.kind == "equal":
        per_query = allocate_equal(eps_t, cfg.n_queries)
        sub = replace(cfg, epsilon_t=eps_t, rate_sweep=None)
    else:
        raise ConfigInvalid(
            "sweeps need an 'equal' or 'fixed' epsilon schedule, "
            f"got {cfg.epsilon_schedule.kind!r}"
        )
    return per_query, sub


def sweep(cfg: WorkloadConfig, epsilon_list: Sequence[float]) -> dict:
    """Accuracy versus budget: rerun the reuse pass for each swept value.

    With a fixed per-query schedule the swept value is the budget each
    query is answered at and the threshold is auto-sized to fit the
    stream; with an equal split the swept value is the threshold itself.
    Every run reuses the same seed, so the mean relative error scales
    exactly with the noise magnitude. Rows carry the analytic
    expectation mean(100 * scale / a) for cross-checking, each query's
    noise scale taken from its own aggregate (1/ε for COUNT, the SUM
    sensitivity over ε for SUM); a row's ``noise_scale`` is the SUM scale.
    ``epsilon_list`` must be a non-empty list of positive, finite numbers.
    """
    if not epsilon_list or not all(codec.conforms(e, float) and e > 0 for e in epsilon_list):
        raise ConfigInvalid(
            f"epsilon list {list(epsilon_list)!r} must hold positive, finite numbers")
    points = [_sweep_point(cfg, float(eps_t)) for eps_t in epsilon_list]
    # A point sets only each query's eps_f and draws no random number, so the
    # schedule is drawn once.
    schedule = generate_workload(points[0][1])
    rows = []
    for eps_t, (per_query, sub) in zip(epsilon_list, points):
        queries = [replace(plan, eps_f=per_query) for plan in schedule.queries]
        res = _execute(sub, WorkloadSchedule(schedule.writes, queries), reuse_enabled=True)
        state = _committed_state(res.net)
        exacts = [state.answer(plan.key) for plan in queries]
        metrics = _mode_metrics(res, [_error(exact, receipt.response) for exact, receipt
                                      in zip(exacts, res.query_receipts)])
        lam = laplace_scale(per_query, sensitivity(Aggregate.SUM))
        # (noise scale, exact answer) of each query whose exact answer is not 0.
        answered = [(laplace_scale(per_query, sensitivity(plan.key.aggregate)), exact)
                    for plan, exact in zip(queries, exacts) if exact != 0]
        expected = (float(np.mean([100.0 * scale / a for scale, a in answered]))
                    if answered else 0.0)
        se = (100.0 * lam / len(answered)) * math.sqrt(
            sum((scale / lam) ** 2 / (a * a) for scale, a in answered)) if answered else 0.0
        rows.append({
            "epsilon_t": float(eps_t),
            "per_query_epsilon": per_query,
            "noise_scale": lam,
            "mean_relative_error": metrics["mean_relative_error"],
            "accuracy": metrics["accuracy"],
            "expected_error": expected,
            "expected_error_se": se,
        })
    return {"config": cfg.to_dict(), "epsilon_list": [float(e) for e in epsilon_list],
            "rows": rows}


# ---------------------------------------------------------------------------
# named scenarios

# The shipped scenario presets; the workload counts are kept distinct.
SCENARIOS = {
    # Each query is answered at the swept budget; the threshold leaves
    # headroom for exactly the 150-query stream.
    "error-150": WorkloadConfig(
        name="error-150", n_writes=500, n_queries=150, epsilon_t=151.0,
        epsilon_schedule=EpsilonSchedule(kind="fixed", value=1.0)),
    "budget-155": WorkloadConfig(
        name="budget-155", n_writes=500, n_queries=155, n_repeats=55, epsilon_t=10.0,
        epsilon_schedule=EpsilonSchedule(kind="calibrated", low=0.01, high=0.12,
                                         fresh_total=5.7, repeat_total=3.2)),
    # Mixed COUNT/SUM stream so 755 distinct categories exist; every
    # query is fresh and therefore flows through ordering and commit.
    "throughput-755": WorkloadConfig(
        name="throughput-755", n_writes=500, n_queries=755, epsilon_t=8.0,
        epsilon_schedule=EpsilonSchedule(kind="equal"), sum_only=False,
        rate_sweep=(10, 20, 30, 40, 50)),
}
SCENARIO_NAMES = tuple(SCENARIOS)


def scenario_config(name: str, seed: Optional[int] = None) -> WorkloadConfig:
    """The shipped preset ``name``, at ``seed`` if one is given."""
    # A tuple test, so that a name read from JSON that cannot be hashed is refused too.
    if name not in SCENARIO_NAMES:
        raise ConfigInvalid(f"unknown scenario {name!r}; "
                            "expected error-150, budget-155, or throughput-755")
    return SCENARIOS[name] if seed is None else replace(SCENARIOS[name], seed=seed)


# ---------------------------------------------------------------------------
# attack drivers

def _check_counts(**counts: int) -> None:
    """Raise ``ConfigInvalid`` naming each attack count that is not an integer >= 1."""
    bad = [f"{name}={n!r}" for name, n in counts.items()
           if not (codec.conforms(n, int) and n >= 1)]
    if bad:
        raise ConfigInvalid(f"attack counts must be integers >= 1: {', '.join(bad)}")


def run_linking_attack(*, dp_enabled: bool = True, epsilon: float = 1.0,
                       n_trials: int = 10_000, tolerance: float = DEFAULT_TOLERANCE,
                       n_writes: int = 200, seed: int = 7) -> dict:
    """Difference attack against a small populated ledger.

    ``dp_enabled`` picks the attack's arm. Without noise, the exact answer
    a default chaincode returns recovers the target from one response;
    with noise, the Monte-Carlo success rate is compared with the noise
    CDF at the tolerance.
    """
    check_epsilon(epsilon)
    _check_counts(n_trials=n_trials)
    if not (codec.conforms(tolerance, float) and tolerance >= 0):
        raise ConfigInvalid(f"attack tolerance must be finite and >= 0: tolerance={tolerance!r}")
    if not isinstance(dp_enabled, bool):
        raise ConfigInvalid(f"dp_enabled {dp_enabled!r} must be a bool")
    cfg = WorkloadConfig(name="attack-linking", n_writes=n_writes, n_queries=0,
                         epsilon_t=max(1.0, epsilon * (n_trials + 1)), seed=seed)
    net = _execute(cfg, generate_workload(cfg), reuse_enabled=False).net
    # The committed writes, read from the chain in commit order.
    records = [env.tx for block in net.channels[CHANNEL_ID].chain
               for env in block.envelopes if isinstance(env.tx, WriteTransaction)]

    rng = np.random.default_rng(np.random.SeedSequence([seed, 2]))
    target_index = int(rng.integers(len(records)))
    bk = BackgroundKnowledge.from_ledger(records, target_index)
    true_qty = float(records[target_index].quantity)
    query = QueryTransaction(CategoryKey(Aggregate.SUM), REQUESTER)

    if not dp_enabled:
        exact_total = bk.matching_sum(query.key) + true_qty
        report = linking_attack(query, exact_total, bk, true_qty, tolerance)
        return {"report": report, "success_rate": 1.0 if report.success else 0.0,
                "expected_rate": 1.0, "n_trials": 1}

    lam = laplace_scale(epsilon, sensitivity(Aggregate.SUM))
    rate, sample = linking_trials(query, bk, true_qty, epsilon, rng, n_trials, tolerance)
    return {
        "report": sample[0],
        "success_rate": rate,
        "expected_rate": 1.0 - math.exp(-tolerance / lam),
        "n_trials": n_trials,
    }


def run_composition_attack(*, reuse_enabled: bool = True, categories: int = 200,
                           repeats: int = 50, epsilon: float = 1.0,
                           n_writes: int = 300, seed: int = 7) -> AttackReport:
    """Send one query set to both channel peers, repeatedly, and average."""
    check_epsilon(epsilon)
    _check_counts(categories=categories, repeats=repeats)
    needed = 2 * repeats * categories * epsilon + 1
    cfg = WorkloadConfig(name="attack-composition", n_writes=n_writes, n_queries=0,
                         epsilon_t=needed, seed=seed)
    net = _execute(cfg, generate_workload(cfg), reuse_enabled).net
    state = _committed_state(net)
    peers = net.channels[CHANNEL_ID].members[:2]

    keys = _candidate_keys(cfg, state, categories)
    if len(keys) < categories:
        raise ConfigInvalid(f"workload produced only {len(keys)} query categories")

    answers: Dict[str, Dict[CategoryKey, List[float]]] = {p: {} for p in peers}
    observed = 0.0
    queries = [(key, QueryTransaction(key, REQUESTER)) for key in keys]
    for _ in range(repeats):
        for key, tx in queries:
            for peer_id in peers:
                receipt = net.submit(REQUESTER, tx, eps_f=epsilon,
                                     target_peer=peer_id)
                answers[peer_id].setdefault(key, []).append(receipt.response.value)
                if receipt.status is not ReceiptStatus.CACHED:
                    observed += receipt.response.epsilon_used
    net.run_until_idle()

    true_values = {k: state.answer(k) for k in keys}
    return composition_attack(answers[peers[0]], answers[peers[1]], repeats,
                              true_values, epsilon_observed=observed)


def run_averaging_attack(*, reuse_enabled: bool = True, n: int = 100,
                         epsilon: float = 1.0, epsilon_t: Optional[float] = None,
                         n_writes: int = 200, seed: int = 7) -> AttackReport:
    """Repeat one query n times and average the answers."""
    check_epsilon(epsilon)
    _check_counts(n=n)
    eps_t = epsilon_t if epsilon_t is not None else n * epsilon + 1
    cfg = WorkloadConfig(name="attack-averaging", n_writes=n_writes, n_queries=0,
                         epsilon_t=eps_t, seed=seed)
    net = _execute(cfg, generate_workload(cfg), reuse_enabled).net
    query = QueryTransaction(CategoryKey.of(Aggregate.SUM, CUSTOMERS[0]), REQUESTER)
    true_value = _committed_state(net).answer(query.key)

    def ask():
        receipt = net.submit(REQUESTER, query, eps_f=epsilon)
        if receipt.status is ReceiptStatus.REJECTED:
            raise BudgetExhausted(receipt.reject_reason)
        return receipt.response

    report = repeated_query_averaging(ask, n, true_value)
    net.run_until_idle()
    return report


# ---------------------------------------------------------------------------
# report export

def _csv_text(header: Sequence[str], rows: Sequence[Sequence]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def _budget_events_csv(events) -> str:
    """One row per accounting event; a reuse row is flagged 1."""
    return _csv_text(
        ["query_id", "requester_id", "epsilon_f", "epsilon_rem", "reused_flag"],
        [(e.query_id, e.requester_id, e.epsilon_f, e.epsilon_rem, int(e.reused))
         for e in events])


def _receipts_csv(receipts) -> str:
    """One row per submission: its outcome, ticks and reject reason."""
    return _csv_text(
        ["tx_id", "kind", "status", "submit_tick", "commit_tick", "commit_height",
         "latency", "reject_reason"],
        [(r.tx_id, r.kind, r.status.value, r.submit_tick, r.commit_tick, r.commit_height,
          r.latency, r.reject_reason) for r in receipts])


def _json_text(doc) -> str:
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def _writer(out_dir) -> Callable[[str, str], Path]:
    """Create ``out_dir`` and return ``emit(name, text)``, which writes one
    file there and returns its path."""
    out = Path(out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as err:
        raise IoFailure(str(err)) from err

    def emit(name: str, text: str) -> Path:
        path = out / name
        write_text(path, text)
        return path

    return emit


def _report_files(report: dict) -> Dict[str, str]:
    """The text of each file ``export_report`` writes, by file name."""
    summary = {
        "scenario": report["config"]["name"],
        "seed": report["config"]["seed"],
        "n_writes": report["config"]["n_writes"],
        "n_queries": report["config"]["n_queries"],
        "naive_eps_sum": report["naive_eps_sum"],
        "reuse_eps_sum": report["reuse_eps_sum"],
        "savings_pct": report["savings_pct"],
        "mean_relative_error": report["reuse"]["mean_relative_error"],
        "accuracy": report["reuse"]["accuracy"],
        "naive": report["naive"],
        "reuse": report["reuse"],
    }
    files = {
        "report.json": _json_text(report),
        "summary.json": _json_text(summary),
        "budget_curve.csv": _csv_text(
            ["query_index", "naive_eps_sum", "reuse_eps_sum"],
            [(r["index"], r["cum_eps_naive"], r["cum_eps_reuse"]) for r in report["rows"]],
        ),
        "relative_errors.csv": _csv_text(
            ["query_index", "category", "exact", "value_naive", "value_reuse",
             "rel_err_naive", "rel_err_reuse", "reused"],
            [(r["index"], r["category"], r["exact"], r["value_naive"], r["value_reuse"],
              r["rel_err_naive"], r["rel_err_reuse"], int(r["reused"])) for r in report["rows"]],
        ),
    }
    if report.get("performance"):
        keys = list(report["performance"][0])
        files["performance.csv"] = _csv_text(
            keys, [[row[k] for k in keys] for row in report["performance"]])
    for name, text in report.get("artifacts", {}).items():
        if Path(name).name != name or not isinstance(text, str):
            raise ConfigInvalid(f"not a report: artifact {name!r} is not a file name "
                                f"with its text")
        files[name] = text
    return files


def export_report(report: dict, out_dir) -> List[Path]:
    """Write the report as one JSON summary plus one CSV per metric series.

    Output is deterministic: re-exporting the same report produces
    byte-identical files. A document that is not shaped like a report
    raises ``ConfigInvalid`` before any file is written.
    """
    try:
        files = _report_files(report)
    except KeyError as err:
        raise ConfigInvalid(f"not a report: no key {err}") from err
    except (AttributeError, IndexError, TypeError, ValueError) as err:
        raise ConfigInvalid(f"not a report: {err}") from err
    emit = _writer(out_dir)
    return [emit(name, text) for name, text in files.items()]


def export_sweep(sweep_result: dict, out_dir) -> List[Path]:
    emit = _writer(out_dir)
    columns = ["epsilon_t", "per_query_epsilon", "noise_scale", "mean_relative_error",
               "accuracy", "expected_error", "expected_error_se"]
    return [
        emit("sweep.json", _json_text(sweep_result)),
        emit("error_vs_epsilon.csv", _csv_text(
            columns, [[r[k] for k in columns] for r in sweep_result["rows"]])),
    ]


def export_ledger(cfg: WorkloadConfig, out_dir) -> List[Path]:
    """Populate a ledger with the write round only and dump it to files."""
    sub = replace(cfg, n_queries=0, rate_sweep=None)
    res = _execute(sub, generate_workload(sub), reuse_enabled=True)
    chain = next(iter(res.net.peers.values())).chains[CHANNEL_ID]
    emit = _writer(out_dir)
    return [emit("ledger.jsonl", export_transactions(chain, CHANNEL_ID)),
            emit("blocks.jsonl", export_blocks(chain))]
