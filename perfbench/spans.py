"""Traced runs: spans around the calls into each dpledger module.

The tracer replaces layer functions at the namespace they are called
through (``dpledger.network.build_block``, ``ChaincodeEngine.answer_query``
and so on) for the duration of one timed window, and puts the originals
back afterwards. Nothing under ``src/`` is edited. A target that no longer
exists is skipped and listed in ``missing``; the metrics that depend on it
are then absent instead of the run failing.

A span is ``[name, start_ns, end_ns, parent, request_id, height]``. Every
``Network.submit`` and ``Network.tick`` starts a new request id that its
child spans share; block spans carry the block height. A span's self time
is its duration minus the durations of its children: calls are nested and
single-threaded, so children never overlap.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

# (module, attribute path, span name, starts a request, height of args)
TARGETS = (
    ("dpledger.network", "Network.submit", "network.submit", True, None),
    ("dpledger.network", "Network.tick", "network.tick", True, None),
    ("dpledger.network", "Network._endorse_tx", "network.endorse_tx", False, None),
    ("dpledger.network", "Network._collect_endorsements", "network.endorse", False, None),
    ("dpledger.network", "SoloOrderer.cut_due", "network.cut_due", False, None),
    ("dpledger.network", "build_block", "ledger.build_block", False,
     lambda args: args[1].height + 1),
    ("dpledger.ledger", "compute_block_hash", "ledger.compute_block_hash", False,
     lambda args: args[0]),
    ("dpledger.network", "Network.deliver_and_commit", "network.deliver_and_commit", False,
     lambda args: args[2].height),
    ("dpledger.network", "endorsement_valid", "network.endorsement_valid", False, None),
    ("dpledger.network", "apply_block", "ledger.apply_block", False,
     lambda args: args[1].height),
    ("dpledger.ledger", "WorldState.apply_write", "ledger.apply_write", False, None),
    ("dpledger.ledger", "WorldState.record_query", "ledger.record_query", False, None),
    ("dpledger.transactions", "Envelope.payload_bytes", "transactions.payload_bytes",
     False, None),
    ("dpledger.transactions", "Envelope.canonical_bytes", "transactions.canonical_bytes",
     False, None),
    ("dpledger.chaincode", "ChaincodeEngine.answer_query", "chaincode.answer_query",
     False, None),
    ("dpledger.chaincode", "evaluate_exact", "chaincode.evaluate_exact", False, None),
    ("dpledger.chaincode", "perturb", "laplace.perturb", False, None),
    ("dpledger.budget", "BudgetAccountant.try_spend", "budget.try_spend", False, None),
    ("dpledger.budget", "BudgetAccountant.record_reuse", "budget.record_reuse", False, None),
    ("dpledger.budget", "exact", "budget.exact", False, None),
    ("dpledger.bench", "generate_workload", "bench.generate_workload", False, None),
    ("dpledger.bench", "run_scenario", "bench.run_scenario", False, None),
    ("dpledger.bench", "_execute", "bench.execute", False, None),
    ("dpledger.bench", "performance_scan", "bench.performance_scan", False, None),
    ("dpledger.bench", "export_report", "bench.export_report", False, None),
)

ENCODE = ("transactions.payload_bytes", "transactions.canonical_bytes")
# Children of deliver_and_commit that fold the block into a world state;
# the rest of deliver_and_commit is validation and bookkeeping.
FOLDS = ("ledger.apply_block", "ledger.apply_write")


def _resolve(module_name: str, path: str):
    """(owner, attribute) for a dotted path inside a module, or None if gone."""
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name, None)
        if owner is None:
            return None
    if attr not in vars(owner):
        return None
    return owner, attr


class Tracer:
    """Collects spans in memory while ``active()``."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self.missing: List[str] = []
        self._stack: List[int] = []
        self._requests = 0

    def _wrap(self, fn: Callable, name: str, starts_request: bool,
              height: Optional[Callable]) -> Callable:
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            if starts_request:
                self._requests += 1
                request = self._requests
            else:
                request = spans[parent][4] if parent >= 0 else 0
            at = None
            if height is not None:
                try:
                    at = height(args)
                except (AttributeError, IndexError, TypeError):
                    pass
            span = [name, 0, 0, parent, request, at]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if name == "chaincode.answer_query":
                span[0] = ("chaincode.answer_cached" if getattr(out, "reused", False)
                           else "chaincode.answer_fresh")
            return out

        return traced

    @contextmanager
    def active(self):
        """Wrap every target that exists; restore the originals on exit."""
        undo = []
        self.missing = []
        try:
            for module_name, path, name, starts_request, height in TARGETS:
                found = _resolve(module_name, path)
                if found is None:
                    self.missing.append(f"{module_name}.{path}")
                    continue
                owner, attr = found
                original = vars(owner)[attr]
                setattr(owner, attr, self._wrap(original, name, starts_request, height))
                undo.append((owner, attr, original))
            yield self
        finally:
            for owner, attr, original in reversed(undo):
                setattr(owner, attr, original)

    def write(self, path) -> None:
        """One JSON object per span, times relative to the first span's start."""
        base = self.spans[0][1] if self.spans else 0
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, request, height in self.spans:
                fh.write(json.dumps({"name": name, "start_ns": start - base,
                                     "end_ns": end - base, "parent": parent,
                                     "id": request, "height": height}) + "\n")


@dataclass
class LayerTotals:
    """Span counts and times per name, summed over traced windows."""

    calls: Dict[str, int] = field(default_factory=dict)
    total_ns: Dict[str, int] = field(default_factory=dict)
    self_ns: Dict[str, int] = field(default_factory=dict)
    exact_in_spend: int = 0
    validate_ns: int = 0

    def add(self, spans: List[list]) -> None:
        children = [0] * len(spans)
        folds = [0] * len(spans)
        for name, start, end, parent, _, _ in spans:
            if parent >= 0:
                children[parent] += end - start
                parent_name = spans[parent][0]
                if name in FOLDS and parent_name == "network.deliver_and_commit":
                    folds[parent] += end - start
                elif name == "budget.exact" and parent_name == "budget.try_spend":
                    self.exact_in_spend += 1
        for i, (name, start, end, _, _, _) in enumerate(spans):
            duration = end - start
            self.calls[name] = self.calls.get(name, 0) + 1
            self.total_ns[name] = self.total_ns.get(name, 0) + duration
            self.self_ns[name] = self.self_ns.get(name, 0) + duration - children[i]
            if name == "network.deliver_and_commit":
                self.validate_ns += duration - folds[i]

    def per_call_us(self, name: str, *, self_time: bool = False) -> float:
        calls = self.calls.get(name, 0)
        times = self.self_ns if self_time else self.total_ns
        return times.get(name, 0) / calls / 1e3 if calls else 0.0


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(totals: LayerTotals, counts: Dict[str, float], traced_windows: int,
                  missing: List[str]) -> Dict[str, float]:
    """Per-layer metric values from span totals and the traced trials' counts.

    ``counts`` sums over the traced windows: committed_txs, committed_writes,
    committed_blocks, queries, probes, evaluations, noise_draws, rejected,
    audited_blocks, window_s, generate_s, verify_s, replay_s, checked_blocks;
    ``commit_wait_ticks_p50`` is already a median. A metric whose span target
    is listed in ``missing`` is left out.
    """
    t = totals
    encode_calls = sum(t.calls.get(n, 0) for n in ENCODE)
    encode_self_ns = sum(t.self_ns.get(n, 0) for n in ENCODE)
    spends = t.calls.get("budget.try_spend", 0)
    metrics = {
        "transactions.encode_calls_per_tx": _ratio(encode_calls, counts["committed_txs"]),
        "transactions.encode_us": _ratio(encode_self_ns / 1e3, encode_calls),
        "transactions.encode_share": _ratio(encode_self_ns / 1e9, counts["window_s"]),
        "network.submit_self_us": t.per_call_us("network.submit", self_time=True),
        "network.endorse_us": t.per_call_us("network.endorse"),
        "network.order_us": t.per_call_us("network.cut_due"),
        "network.txs_per_block": _ratio(counts["committed_txs"], counts["committed_blocks"]),
        "network.commit_wait_ticks_p50": counts["commit_wait_ticks_p50"],
        "network.validate_us_per_tx": _ratio(t.validate_ns / 1e3, counts["committed_txs"]),
        "network.commit_us_per_block": t.per_call_us("network.deliver_and_commit"),
        "network.rejected": counts["rejected"] / traced_windows,
        "network.audited_blocks": counts["audited_blocks"] / traced_windows,
        "chaincode.cache_hit_ratio": _ratio(t.calls.get("chaincode.answer_cached", 0),
                                            counts["queries"]),
        "chaincode.answer_fresh_us": t.per_call_us("chaincode.answer_fresh"),
        "chaincode.answer_cached_us": t.per_call_us("chaincode.answer_cached"),
        "chaincode.evaluate_us": t.per_call_us("chaincode.evaluate_exact"),
        "chaincode.probes": _ratio(counts["probes"], counts["queries"]),
        "chaincode.evaluations": _ratio(counts["evaluations"], counts["queries"]),
        "chaincode.noise_draws": _ratio(counts["noise_draws"], counts["queries"]),
        "budget.spend_us": t.per_call_us("budget.try_spend"),
        "budget.exact_calls_per_spend": _ratio(t.exact_in_spend, spends),
        "budget.reuse_us": t.per_call_us("budget.record_reuse"),
        "laplace.perturb_us": t.per_call_us("laplace.perturb"),
        "ledger.block_hash_us": t.per_call_us("ledger.compute_block_hash"),
        "ledger.apply_block_us": t.per_call_us("ledger.apply_block"),
        "ledger.apply_write_calls_per_write": _ratio(t.calls.get("ledger.apply_write", 0),
                                                     counts["committed_writes"]),
        "ledger.record_query_us": t.per_call_us("ledger.record_query"),
        "ledger.verify_us_per_block": _ratio(counts["verify_s"] * 1e6, counts["checked_blocks"]),
        "ledger.replay_us_per_block": _ratio(counts["replay_s"] * 1e6, counts["checked_blocks"]),
        "bench.generate_s": counts["generate_s"] / traced_windows,
        "bench.report_s": (t.self_ns.get("bench.run_scenario", 0)
                           + t.total_ns.get("bench.export_report", 0)) / 1e9 / traced_windows,
    }
    gone = {name for module, path, name, _, _ in TARGETS if f"{module}.{path}" in missing}
    return {k: v for k, v in metrics.items() if not gone & set(DEPENDS.get(k, ()))}


# Span names each metric reads; a metric is dropped when one of them is missing.
DEPENDS = {
    "transactions.encode_calls_per_tx": ENCODE,
    "transactions.encode_us": ENCODE,
    "transactions.encode_share": ENCODE,
    "network.submit_self_us": ("network.submit", "network.endorse_tx"),
    "network.endorse_us": ("network.endorse",),
    "network.order_us": ("network.cut_due",),
    "network.validate_us_per_tx": ("network.deliver_and_commit", "ledger.apply_block",
                                   "ledger.apply_write"),
    "network.commit_us_per_block": ("network.deliver_and_commit",),
    "chaincode.cache_hit_ratio": ("chaincode.answer_query",),
    "chaincode.answer_fresh_us": ("chaincode.answer_query",),
    "chaincode.answer_cached_us": ("chaincode.answer_query",),
    "chaincode.evaluate_us": ("chaincode.evaluate_exact",),
    "budget.spend_us": ("budget.try_spend",),
    "budget.exact_calls_per_spend": ("budget.try_spend", "budget.exact"),
    "budget.reuse_us": ("budget.record_reuse",),
    "laplace.perturb_us": ("laplace.perturb",),
    "ledger.block_hash_us": ("ledger.compute_block_hash",),
    "ledger.apply_block_us": ("ledger.apply_block",),
    "ledger.apply_write_calls_per_write": ("ledger.apply_write",),
    "ledger.record_query_us": ("ledger.record_query",),
    "bench.report_s": ("bench.run_scenario", "bench.export_report", "bench.execute",
                       "bench.generate_workload", "bench.performance_scan"),
}
