"""Tests of the benchmark itself: metric coverage, checks, determinism.

Run from the repository root with ``python3 -m pytest -q perfbench/tests``.
"""

import io
import json
import os
import shutil
import subprocess
import sys
from dataclasses import asdict, replace

import pytest

from dpledger import Block, bench
from perfbench import checks, report, spans, workloads

from conftest import ROOT

TINY = workloads.Size(writes=300, preload=300, categories=20, rounds=3, window=40)
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]


def _result(text: str) -> dict:
    return json.loads(text.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_emits_every_metric(workload, trace, tmp_path):
    out = io.StringIO()
    code = report.report(workload, 3, 0.0, bool(trace), TINY, 1, tmp_path, out)
    result = _result(out.getvalue())
    assert code == 0, out.getvalue()
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    names = report.metric_units("per_layer" if trace else "end_to_end")
    assert set(result["metrics"]) == set(names)
    for name, metric in result["metrics"].items():
        assert metric["unit"] == names[name]
        if not trace:
            assert metric["value"] > 0, name
    if trace:
        assert (tmp_path / f"spans-{workload}-seed3-trace1.jsonl").stat().st_size > 0
    detail = json.loads((tmp_path / f"result-{workload}-seed3-trace{trace}.json").read_text())
    for key in ("python", "numpy", "git_sha", "nproc", "cpu_model", "seed"):
        assert key in detail["provenance"]
    assert detail["samples"]["submit"] > 0 and detail["samples"]["commit"] > 0


def _traced_metrics(workload, tmp_path) -> dict:
    out = io.StringIO()
    report.report(workload, 3, 0.0, True, TINY, 1, tmp_path, out)
    return {k: v["value"] for k, v in _result(out.getvalue())["metrics"].items()}


def test_traced_counts_match_the_code_paths(tmp_path):
    metrics = _traced_metrics("fresh-queries", tmp_path)
    # Three payload encodings per tx (endorsement, validation, block hash via
    # canonical_bytes) plus the canonical_bytes call itself.
    assert metrics["transactions.encode_calls_per_tx"] == 4.0
    assert metrics["network.txs_per_block"] == 10.0
    assert metrics["chaincode.cache_hit_ratio"] == 0.0
    assert metrics["budget.exact_calls_per_spend"] == 1.0
    # The channel's execution state plus one fold per peer.
    assert _traced_metrics("ingest-writes", tmp_path)[
        "ledger.apply_write_calls_per_write"] == 3.0


def test_timings_are_scaled_window_by_window():
    def trial(scale):
        t = workloads.Trial(ROOT)
        win = workloads.Window(seconds=2.0, ops=100, scale=scale)
        win.samples.submit_ns.extend([10_000, 20_000, 30_000])
        win.samples.commit_ns.extend([100_000, 200_000])
        t.windows.append(win)
        t.setup_s, t.setup_wall_s = 0.5 * scale, 0.5
        return t

    nominal, slow = report.end_to_end([trial(1.0)]), report.end_to_end([trial(0.5)])
    assert slow["ops_per_s"] == 2 * nominal["ops_per_s"] == 100.0
    assert slow["submit_p50_us"] == nominal["submit_p50_us"] / 2 == 10.0
    assert slow["commit_p50_us"] == nominal["commit_p50_us"] / 2
    assert report.end_to_end([trial(0.5)], scaled=False) == nominal


def test_failed_check_reports_no_timings(tmp_path, monkeypatch):
    monkeypatch.setattr(checks, "written_total_problems", lambda net, writes: ["forced"])
    out = io.StringIO()
    code = report.report("fresh-queries", 3, 0.0, False, TINY, 1, tmp_path, out)
    result = _result(out.getvalue())
    assert code == 1
    assert result["correct"] is False and result["metrics"] == {}
    assert result["failed"] == result["attempted"] > 0


def test_altered_envelope_fails_the_chain_check():
    net = workloads._network(5, reuse=True, epsilon_t=1.0)
    schedule = bench.generate_workload(bench.WorkloadConfig(n_writes=40, n_queries=0, seed=5))
    workloads._drive(net, [(workloads.LOADER, tx, None, None) for _, tx in schedule.writes])
    assert checks.chain_problems(net, {}) == []

    block = net.channels[checks.CHANNEL].chain[2]
    env = block.envelopes[0]
    forged_tx = replace(env.tx, quantity=env.tx.quantity % 100 + 1)
    forged = Block(block.height, block.prev_hash,
                   (replace(env, tx=forged_tx),) + block.envelopes[1:], block.block_hash)
    for peer in net.peers.values():
        peer.chains[checks.CHANNEL][2] = forged
    problems = checks.chain_problems(net, {})
    assert any("verify_chain" in p for p in problems)
    assert any("replayed chain" in p for p in problems)


def test_same_seed_gives_the_same_chain_head():
    heads = []
    for seed in (5, 5, 6):
        trial = workloads.run_trial("fresh-queries", seed, TINY, ROOT)
        assert trial.problems == []
        heads.append(trial.fingerprint["chain_head"])
    assert heads[0] == heads[1] != heads[2]


_FINGERPRINT = """
import json, sys
from pathlib import Path
from perfbench import workloads
size = workloads.Size(**json.loads(sys.argv[3]))
trial = workloads.run_trial(sys.argv[1], 5, size, Path(sys.argv[2]))
assert trial.problems == [], trial.problems
print(json.dumps(trial.fingerprint, sort_keys=True))
"""


@pytest.mark.parametrize("workload", WORKLOADS)
def test_fingerprint_does_not_depend_on_the_hash_seed(workload, tmp_path):
    """Chain heads and report digests must not follow set or dict hash order,
    which changes with ``PYTHONHASHSEED`` from one process to the next."""
    prints = []
    for hash_seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed,
                   PYTHONPATH=os.pathsep.join([str(ROOT), str(ROOT / "src")]))
        proc = subprocess.run([sys.executable, "-c", _FINGERPRINT, workload, str(tmp_path),
                               json.dumps(asdict(TINY))],
                              cwd=ROOT, env=env, capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        prints.append(proc.stdout)
    assert prints[0] == prints[1] != ""


@pytest.mark.parametrize("seed", [7, 21, 99])
def test_budget_155_spends_its_totals_at_every_seed(seed):
    cfg = bench.scenario_config("budget-155", seed)
    report = bench.run_scenario(cfg)
    assert checks.scenario_problems(report, bench.generate_workload(cfg)) == []
    report["reuse_eps_sum"] += 0.01
    assert checks.scenario_problems(report, bench.generate_workload(cfg))


def test_self_time_subtracts_children():
    spans_ = [
        ["network.deliver_and_commit", 0, 100, -1, 1, 1],
        ["ledger.apply_block", 10, 40, 0, 1, 1],
        ["network.endorsement_valid", 50, 60, 0, 1, None],
        ["ledger.apply_write", 15, 25, 1, 1, None],
    ]
    totals = spans.LayerTotals()
    totals.add(spans_)
    assert totals.self_ns["network.deliver_and_commit"] == 60
    assert totals.self_ns["ledger.apply_block"] == 20
    assert totals.validate_ns == 70  # everything but the fold under deliver_and_commit


def test_missing_target_is_skipped(monkeypatch):
    monkeypatch.setattr(spans, "TARGETS", spans.TARGETS + (
        ("dpledger.chaincode", "ChaincodeEngine.gone", "chaincode.gone", False, None),))
    tracer = spans.Tracer()
    with tracer.active():
        pass
    assert tracer.missing == ["dpledger.chaincode.ChaincodeEngine.gone"]
    counts = dict.fromkeys(("committed_txs", "committed_writes", "committed_blocks",
                            "queries", "probes", "evaluations", "noise_draws", "rejected",
                            "audited_blocks", "window_s", "generate_s", "verify_s",
                            "replay_s", "checked_blocks", "commit_wait_ticks_p50"), 1)
    metrics = spans.layer_metrics(spans.LayerTotals(), counts, 1,
                                  ["dpledger.chaincode.evaluate_exact"])
    assert "chaincode.evaluate_us" not in metrics and "laplace.perturb_us" in metrics


def test_exits_nonzero_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fresh-queries", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""
