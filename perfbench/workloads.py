"""The benchmark workloads: set-up, timed windows, output checks.

One trial of a workload builds its inputs from the seed and a fresh
network (set-up, timed as ``setup_s``), runs its timed windows, and then
checks the outputs outside the windows. Every trial of a run uses the same
inputs, so its chain head and report digests must repeat from trial to
trial. The chain checks (``checks.chain_problems``) cost about as much as
the windows, so they run in full on the first trial of a run and on every
traced trial; the other trials must reproduce the first one's chain head,
which binds every block of the chain, and pass the cheaper checks.

The loop is closed: the next ``submit`` or ``tick`` starts only
after the previous call returned, and the simulated clock advances one
tick after every ``PER_TICK`` submissions. Nothing delays messages, so
every latency is processor time. The topology is the library's default:
two orgs with one peer each, batch size 10, batch timeout 2.

The query workloads are ``bench.run_composition_attack`` at its defaults
(300 writes, 200 SUM categories, 50 rounds over both peers, epsilon 1),
with reuse off (fresh-queries) and on (repeat-queries). ingest-writes
submits 20,000 writes, as many submissions as that driver sends.

Every timed window and every set-up is bracketed by two runs of a fixed
pure-Python reference loop (``reference_s``). A processor shared with
other tenants changes speed by a third or more, for milliseconds to
minutes at a time, and the reference loop slows with it; scaling by the
loop's time gives timings that are steadier from run to run.
``Window.scale`` is the factor that converts a window's wall times to the
nominal speed ``REFERENCE_S``.
"""

from __future__ import annotations

import functools
import gc
import hashlib
import random
import resource
import shutil
import tempfile
import time
from array import array
from contextlib import ExitStack, contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

from dpledger import Network, ReceiptStatus, bench
from dpledger.bench import EpsilonSchedule, WorkloadConfig

from . import checks
from .spans import Tracer

CHANNEL = checks.CHANNEL
LOADER = bench.LOADER_CLIENT
REQUESTER = "distributor-a"
# Submissions per simulated tick: one full block at the batch size of 10,
# so every write block is full and every committing tick gives one sample.
PER_TICK = 10
QUERY_EPSILON = 1.0
SCENARIOS = ("error-150", "budget-155", "throughput-755")
# Nominal time of one ``_reference_loop``: timings are reported at the speed
# at which the loop takes this long, about its median time under CPython
# 3.11 on a shared 2-vCPU Intel Xeon virtual machine. A constant, so that
# runs of different commits are scaled alike.
REFERENCE_S = 2.4e-3


@dataclass(frozen=True)
class Size:
    """Inputs per trial; the tests shrink them."""

    writes: int = 20_000    # ingest-writes: writes submitted
    preload: int = 300      # query workloads: writes committed in set-up
    categories: int = 200   # query workloads: distinct SUM categories
    rounds: int = 50        # query workloads: times each category is asked of each peer
    window: int = 2_000     # submissions per timed window


@functools.cache
def _reference_table() -> tuple:
    """A 65,536-entry dictionary and 1,500 of its keys in shuffled order."""
    table = {f"key-{i}": i for i in range(1 << 16)}
    keys = list(table)
    random.Random(16).shuffle(keys)
    return table, keys[:1_500]


def _reference_loop() -> int:
    """Interpreter arithmetic, then reads scattered over a dictionary of a
    few megabytes: the program's own work is such a mix, and other tenants
    slow the two parts by different amounts."""
    table, keys = _reference_table()
    total = 0
    for i in range(24_000):
        total += i * i % 7
    for key in keys:
        total += table[key]
    return total


def reference_s() -> float:
    """The fastest of three runs of the reference loop, in seconds."""
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        _reference_loop()
        best = min(best, time.perf_counter() - t0)
    return best


def _scale(before: float, after: float) -> float:
    """Factor from wall time to nominal-speed time, given the reference
    loop's times just before and just after the measured interval."""
    return 2 * REFERENCE_S / (before + after)


@dataclass
class Samples:
    """Latency samples of one timed window, in wall nanoseconds."""

    submit_ns: array = field(default_factory=lambda: array("q"))
    commit_ns: array = field(default_factory=lambda: array("q"))


@dataclass
class Window:
    """One timed window: wall time, operations, samples and speed scale."""

    seconds: float = 0.0
    ops: int = 0
    scale: float = 1.0
    samples: Samples = field(default_factory=Samples)


@contextmanager
def _timed_network_calls(samples: Samples, nets: List[Network]):
    """Time every ``Network.submit`` and every ``Network.tick`` that commits blocks.

    The wrappers sit on the class, so they also time the networks that
    ``bench`` builds itself; those networks are collected in ``nets`` for the
    checks. A commit sample is the tick's wall time per block it committed.
    """
    submit, tick = Network.submit, Network.tick
    clock = time.perf_counter_ns

    def timed_submit(self, *args, **kwargs):
        if not nets or nets[-1] is not self:
            nets.append(self)
        t0 = clock()
        try:
            return submit(self, *args, **kwargs)
        finally:
            samples.submit_ns.append(clock() - t0)

    def timed_tick(self):
        chain = self.channels[CHANNEL].chain
        height = len(chain)
        t0 = clock()
        try:
            return tick(self)
        finally:
            elapsed = clock() - t0
            blocks = len(chain) - height
            if blocks:
                samples.commit_ns.append(elapsed // blocks)

    Network.submit, Network.tick = timed_submit, timed_tick
    try:
        yield
    finally:
        Network.submit, Network.tick = submit, tick


class Trial:
    """One set-up, timed windows and checks of a workload."""

    def __init__(self, out_dir: Path, tracer: Optional[Tracer] = None,
                 check_chains: bool = True):
        self.out_dir = out_dir
        self.tracer = tracer
        self.check_chains = check_chains
        self.setup_s = 0.0       # at nominal speed
        self.setup_wall_s = 0.0
        self.windows: List[Window] = []
        self.generate_s = 0.0
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []
        self.fingerprint: Dict[str, str] = {}
        self.counts: Dict[str, float] = {}
        self.commit_waits: List[int] = []
        self.check_stats: Dict[str, float] = {}
        self.nets: List[Network] = []
        self.peak_rss_mb = 0.0
        # Reference time measured as the last window closed; only
        # bookkeeping runs between windows, so it also opens the next one.
        self._reference: Optional[float] = None

    @contextmanager
    def setup(self):
        before = reference_s()
        t0 = time.perf_counter()
        yield
        elapsed = time.perf_counter() - t0
        self.setup_wall_s += elapsed
        self.setup_s += elapsed * _scale(before, reference_s())

    @contextmanager
    def window(self):
        """A timed window. GC stays enabled inside it, and a full collection
        runs before the trial's first window."""
        win = Window()
        if not self.windows:
            gc.collect()
        before = self._reference or reference_s()
        with ExitStack() as stack:
            if self.tracer is not None:
                stack.enter_context(self.tracer.active())
            stack.enter_context(_timed_network_calls(win.samples, self.nets))
            t0 = time.perf_counter()
            yield win
            win.seconds = time.perf_counter() - t0
        self._reference = reference_s()
        win.scale = _scale(before, self._reference)
        self.windows.append(win)

    @property
    def window_s(self) -> float:
        return sum(w.seconds for w in self.windows)

    @property
    def ops(self) -> int:
        return sum(w.ops for w in self.windows)

    def generate(self, cfg: WorkloadConfig):
        t0 = time.perf_counter()
        schedule = bench.generate_workload(cfg)
        self.generate_s += time.perf_counter() - t0
        return schedule

    def tally(self, win: Window, receipts, ops_statuses) -> None:
        """Count a window's receipts as operations, attempts and failures."""
        self.attempted += len(receipts)
        win.ops = sum(1 for r in receipts if r.status in ops_statuses)
        self.failed += sum(1 for r in receipts if r.status is ReceiptStatus.REJECTED)

    def observe(self, runs) -> None:
        """Counts behind the per-layer ratios, read after the windows.

        ``runs`` pairs each network with the receipts of its window submissions.
        """
        counts: Dict[str, float] = dict.fromkeys(
            ("committed_txs", "committed_writes", "committed_blocks", "queries",
             "probes", "evaluations", "noise_draws", "rejected", "audited_blocks"), 0)
        waits: List[int] = []
        for net, receipts in runs:
            committed = [r for r in receipts if r.status is ReceiptStatus.COMMITTED]
            waits += [r.latency for r in committed]
            counts["committed_txs"] += len(committed)
            counts["committed_writes"] += sum(1 for r in committed if r.kind == "write")
            counts["committed_blocks"] += len({r.commit_height for r in committed})
            counts["queries"] += sum(1 for r in receipts if r.kind == "query")
            counts["rejected"] += sum(1 for r in receipts
                                      if r.status is ReceiptStatus.REJECTED)
            counts["audited_blocks"] += len(net.channels[CHANNEL].audit)
            for peer in net.peers.values():
                for engine in getattr(peer, "engines", {}).values():
                    counts["probes"] += getattr(engine, "probe_count", 0)
                    counts["evaluations"] += getattr(engine, "evaluation_count", 0)
                    counts["noise_draws"] += getattr(engine, "noise_draws", 0)
        self.counts = counts
        self.commit_waits = waits

    def check_network(self, net: Network) -> None:
        problems = checks.receipt_problems(net.receipts)
        if self.check_chains:
            problems += checks.chain_problems(net, self.check_stats)
        self.check(problems)

    def check(self, problems: List[str]) -> None:
        """Record check results; a failed check fails every operation of the trial."""
        self.problems.extend(problems)
        if problems:
            self.failed = self.attempted


def _network(seed: int, *, reuse: bool, epsilon_t: float) -> Network:
    net = Network(seed=seed, reuse_enabled=reuse, epsilon_t=epsilon_t)
    net.register_client(LOADER)
    net.register_client(REQUESTER)
    return net


def _drive(net: Network, stream) -> None:
    """Closed loop over (client, tx, eps_f, target_peer); drains the orderer at the end."""
    for i, (client, tx, eps_f, peer) in enumerate(stream, 1):
        net.submit(client, tx, eps_f=eps_f, target_peer=peer)
        if i % PER_TICK == 0:
            net.tick()
    while net.orderer.has_pending():
        net.tick()


def _run_windows(trial: Trial, net: Network, parts, ok_statuses) -> list:
    """Drive each stream of ``parts`` in its own timed window, then check.

    Returns the receipts of every window.
    """
    start = len(net.receipts)
    for stream in parts:
        first = len(net.receipts)
        with trial.window() as win:
            _drive(net, stream)
        trial.tally(win, net.receipts[first:], ok_statuses)
    receipts = net.receipts[start:]
    trial.observe([(net, receipts)])
    trial.check_network(net)
    trial.fingerprint["chain_head"] = net.channels[CHANNEL].chain[-1].block_hash.hex()
    return receipts


def _composition(trial: Trial, seed: int, size: Size, *, reuse: bool):
    """Set-up of the query workloads: commit the preload, then build one round.

    A round asks every category once of each peer, as
    ``bench.run_composition_attack`` does. Returns the network, the round's
    stream items, the category of each query of all rounds in stream order,
    and the preloaded writes.
    """
    schedule = trial.generate(WorkloadConfig(
        name="preload", n_writes=size.preload, n_queries=size.categories, sum_only=True,
        epsilon_t=QUERY_EPSILON * size.categories + 1.0,
        epsilon_schedule=EpsilonSchedule(kind="fixed", value=QUERY_EPSILON), seed=seed))
    fresh_spends = size.categories * (1 if reuse else 2 * size.rounds)
    net = _network(seed, reuse=reuse, epsilon_t=QUERY_EPSILON * fresh_spends + 1.0)
    writes = [tx for _, tx in schedule.writes]
    _drive(net, [(LOADER, tx, None, None) for tx in writes])
    peers = net.channels[CHANNEL].members
    one_round = [(REQUESTER, plan.tx, plan.eps_f, peer)
                 for plan in schedule.queries for peer in peers]
    keys = [plan.key for plan in schedule.queries for _ in peers] * size.rounds
    return net, one_round, keys, writes


def _windows(stream: list, size: Size) -> list:
    """The stream cut into timed windows of ``size.window`` submissions."""
    return [stream[i:i + size.window] for i in range(0, len(stream), size.window)]


def ingest_writes(trial: Trial, seed: int, size: Size) -> None:
    """Only writes, ``PER_TICK`` per tick so that every block is full; an op is
    one write committed on every peer."""
    with trial.setup():
        schedule = trial.generate(WorkloadConfig(
            name="ingest", n_writes=size.writes, n_queries=0, seed=seed))
        net = _network(seed, reuse=False, epsilon_t=1.0)
    writes = [tx for _, tx in schedule.writes]
    _run_windows(trial, net, _windows([(LOADER, tx, None, None) for tx in writes], size),
                 (ReceiptStatus.COMMITTED,))
    trial.check(checks.written_total_problems(net, writes))


def fresh_queries(trial: Trial, seed: int, size: Size) -> None:
    """SUM queries with reuse off; an op is one query answered and committed."""
    with trial.setup():
        net, one_round, _, writes = _composition(trial, seed, size, reuse=False)
    receipts = _run_windows(trial, net, _windows(one_round * size.rounds, size),
                            (ReceiptStatus.COMMITTED,))
    trial.check(checks.written_total_problems(net, writes)
                + checks.committed_answer_problems(net, receipts))


def repeat_queries(trial: Trial, seed: int, size: Size) -> None:
    """The same queries with reuse on; an op is one query answered.

    The first round answers fresh and commits, in a window of its own; every
    later round is served from the cache.
    """
    with trial.setup():
        net, one_round, keys, writes = _composition(trial, seed, size, reuse=True)
    parts = [one_round] + _windows(one_round * (size.rounds - 1), size)
    receipts = _run_windows(trial, net, parts, checks.OK_STATUSES)
    trial.check(checks.written_total_problems(net, writes)
                + checks.committed_answer_problems(net, receipts)
                + checks.repeat_answer_problems(receipts, keys))


def shipped_scenarios(trial: Trial, seed: int, size: Size) -> None:
    """``run_scenario`` plus ``export_report`` for the three shipped scenarios.

    An op is one receipt that ends committed or cached, counted over every
    pass: naive, reuse and the rate sweep of throughput-755. Each scenario
    has its own timed window. Set-up builds the configs and generates their
    schedules, which the checks fold independently of the library.
    """
    with trial.setup():
        configs = [bench.scenario_config(name, seed) for name in SCENARIOS]
        schedules = [trial.generate(cfg) for cfg in configs]
    reports = []
    export_root = Path(tempfile.mkdtemp(prefix="scenarios-", dir=trial.out_dir))
    try:
        for cfg in configs:
            first_net = len(trial.nets)
            with trial.window() as win:
                report = bench.run_scenario(cfg)
                bench.export_report(report, export_root / cfg.name)
            reports.append(report)
            trial.tally(win, [r for net in trial.nets[first_net:] for r in net.receipts],
                        checks.OK_STATUSES)
            digest = hashlib.sha256((export_root / cfg.name / "report.json").read_bytes())
            trial.fingerprint[f"{cfg.name}/report.json"] = digest.hexdigest()
    finally:
        shutil.rmtree(export_root, ignore_errors=True)
    trial.observe([(net, net.receipts) for net in trial.nets])
    heads = b"".join(net.channels[CHANNEL].chain[-1].block_hash for net in trial.nets)
    trial.fingerprint["chain_heads"] = hashlib.sha256(heads).hexdigest()
    for net in trial.nets:
        trial.check_network(net)
    for report, schedule in zip(reports, schedules):
        trial.check(checks.scenario_problems(report, schedule))


WORKLOADS = {
    "ingest-writes": ingest_writes,
    "fresh-queries": fresh_queries,
    "repeat-queries": repeat_queries,
    "shipped-scenarios": shipped_scenarios,
}


def run_trial(workload: str, seed: int, size: Size, out_dir: Path,
              tracer: Optional[Tracer] = None, check_chains: bool = True) -> Trial:
    trial = Trial(out_dir, tracer, check_chains)
    WORKLOADS[workload](trial, seed, size)
    trial.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    trial.nets = []  # free the networks before the next trial sets up
    return trial
