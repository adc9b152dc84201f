"""Trials, metrics and the printed result of one benchmark run.

End-to-end metrics pool every timed window of the run's untraced trials:
throughput over their summed time, latency percentiles over their samples,
the median set-up time, and the peak RSS of the first trial. Times are
scaled to the nominal processor speed of ``workloads.REFERENCE_S``, window
by window; the result file also holds the unscaled wall-time figures
(``wall_metrics``) and the range of scales applied. A traced run alternates
untraced and traced trials and reports the per-layer metrics from the traced
ones, in wall time, plus the tracing overhead measured against the
untraced ones.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import statistics
import sys
from pathlib import Path

import numpy

from perfbench import spans, workloads

ROOT = Path(__file__).resolve().parents[1]
OUT_DIR = ROOT / "perfbench" / "out"
MIN_TRIALS = 3


def metric_units(section: str) -> dict:
    """Name to unit of the ``end_to_end`` or ``per_layer`` metrics of BENCHMARK.json."""
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in benchmark[section]}


def provenance(seed: int) -> dict:
    """Versions, machine and code identity behind a result."""
    head = None
    git = ROOT / ".git"
    if (git / "HEAD").is_file():
        ref = (git / "HEAD").read_text().strip()
        if ref.startswith("ref: "):
            ref_file = git / ref[5:]
            head = ref_file.read_text().strip() if ref_file.is_file() else None
        else:
            head = ref
    source = hashlib.sha256()
    for path in sorted((ROOT / "src" / "dpledger").rglob("*.py")):
        source.update(path.relative_to(ROOT).as_posix().encode() + b"\0")
        source.update(path.read_bytes())
    cpu_model = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_sha": head,
        "source_sha256": source.hexdigest(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu_model or platform.machine(),
        "seed": seed,
    }


def _trials(workload, seed, seconds, size, traced_too, min_trials, out_dir):
    """Run trials until their windows add up to ``seconds``.

    Returns (untraced trials, traced trials, tracer of the first traced
    trial, layer totals over all traced trials).
    """
    plain, traced = [], []
    first_tracer = None
    totals = spans.LayerTotals()
    elapsed = 0.0
    while (elapsed < seconds or len(plain) < min_trials
           or (traced_too and len(traced) < min_trials)):
        trial = workloads.run_trial(workload, seed, size, out_dir, check_chains=not plain)
        plain.append(trial)
        elapsed += trial.window_s
        if traced_too:
            tracer = spans.Tracer()
            trial = workloads.run_trial(workload, seed, size, out_dir, tracer)
            traced.append(trial)
            elapsed += trial.window_s
            totals.add(tracer.spans)
            if first_tracer is None:
                first_tracer = tracer
            else:
                tracer.spans.clear()
    return plain, traced, first_tracer, totals


def throughput(trials, scaled: bool = True) -> float:
    """Operations per second over every window of ``trials``."""
    seconds = sum(w.seconds * (w.scale if scaled else 1.0)
                  for t in trials for w in t.windows)
    return sum(t.ops for t in trials) / seconds


def _latencies_us(windows, name: str, scaled: bool):
    """Every ``name`` (submit or commit) sample of ``windows``, in microseconds."""
    return numpy.concatenate([
        numpy.frombuffer(getattr(w.samples, f"{name}_ns"), dtype=numpy.int64)
        * ((w.scale if scaled else 1.0) / 1e3) for w in windows])


def end_to_end(plain, scaled: bool = True) -> dict:
    """Throughput, latency percentiles, set-up time and memory of the untraced trials.

    Throughput and the latency percentiles pool every window, each scaled by
    its own speed scale unless ``scaled`` is false. The commit tail is the
    95th percentile: about one committing tick in a hundred also runs a
    generation-1 or full garbage collection that takes twice as long or more,
    so a 99th percentile would sit on that step and jump between runs. Peak
    RSS is read after the first trial, so it does not grow with the number
    of trials a faster program fits into the run.
    """
    windows = [w for t in plain for w in t.windows]
    submit = _latencies_us(windows, "submit", scaled)
    commit = _latencies_us(windows, "commit", scaled)
    return {
        "ops_per_s": throughput(plain, scaled),
        "submit_p50_us": percentile(submit, 50),
        "submit_p99_us": percentile(submit, 99),
        "commit_p50_us": percentile(commit, 50),
        "commit_p95_us": percentile(commit, 95),
        "setup_s": statistics.median(t.setup_s if scaled else t.setup_wall_s
                                     for t in plain),
        "peak_rss_mb": plain[0].peak_rss_mb,
    }


def per_layer(plain, traced, totals) -> dict:
    keys = ("committed_txs", "committed_writes", "committed_blocks", "queries", "probes",
            "evaluations", "noise_draws", "rejected", "audited_blocks")
    counts = {k: sum(t.counts[k] for t in traced) for k in keys}
    counts["window_s"] = sum(t.window_s for t in traced)
    counts["generate_s"] = sum(t.generate_s for t in traced)
    for k in ("verify_s", "replay_s", "checked_blocks"):
        counts[k] = sum(t.check_stats.get(k, 0) for t in traced)
    waits = [w for t in traced for w in t.commit_waits]
    counts["commit_wait_ticks_p50"] = percentile(waits, 50) if waits else 0.0
    metrics = spans.layer_metrics(totals, counts, len(traced), traced[0].tracer.missing)
    metrics["trace.overhead_ratio"] = throughput(plain) / throughput(traced) - 1.0
    return metrics


def _sample_counts(plain, traced) -> dict:
    """Samples behind each reported figure, and the speed scales applied."""
    windows = [w for t in plain for w in t.windows]
    scales = [w.scale for w in windows]
    return {"trials": len(plain), "windows": len(windows), "traced_trials": len(traced),
            "submit": sum(len(w.samples.submit_ns) for w in windows),
            "commit": sum(len(w.samples.commit_ns) for w in windows),
            "scale": {"min": min(scales), "median": statistics.median(scales),
                      "max": max(scales)}}


def percentile(values, q: int) -> float:
    """The q-th percentile, interpolated as ``statistics.quantiles`` does."""
    return float(numpy.percentile(values, q, method="weibull"))


def report(workload: str, seed: int, seconds: float, trace: bool, size, min_trials: int,
           out_dir: Path = OUT_DIR, stream=None) -> int:
    """Run the trials, print the metrics and the result line, write the result file."""
    stream = stream or sys.stdout
    out_dir.mkdir(parents=True, exist_ok=True)
    plain, traced, tracer, totals = _trials(workload, seed, seconds, size, trace,
                                            min_trials, out_dir)
    trials = plain + traced
    problems = [p for t in trials for p in t.problems]
    fingerprints = sorted({json.dumps(t.fingerprint, sort_keys=True) for t in trials})
    if len(fingerprints) != 1:
        problems.append(f"trials with one seed disagree: {fingerprints}")
    correct = not problems
    attempted = sum(t.attempted for t in trials)
    failed = sum(t.failed for t in trials)
    metrics, units = {}, metric_units("per_layer" if trace else "end_to_end")
    if correct:
        values = per_layer(plain, traced, totals) if trace else end_to_end(plain)
        metrics = {name: {"value": values[name], "unit": units[name]}
                   for name in units if name in values}

    label = f"{workload}-seed{seed}-trace{int(trace)}"
    detail = {
        "workload": workload,
        "provenance": provenance(seed),
        "fingerprint": json.loads(fingerprints[0]) if fingerprints else {},
        "trials": [{"traced": t.tracer is not None, "setup_s": t.setup_s,
                    "window_s": t.window_s, "ops": t.ops, "attempted": t.attempted,
                    "failed": t.failed} for t in trials],
        "samples": _sample_counts(plain, traced),
        "problems": problems,
        "missing_targets": traced[0].tracer.missing if traced else [],
        "metrics": metrics,
        "wall_metrics": end_to_end(plain, scaled=False) if correct else {},
    }
    (out_dir / f"result-{label}.json").write_text(json.dumps(detail, indent=2) + "\n")
    if tracer is not None:
        tracer.write(out_dir / f"spans-{label}.jsonl")

    print(f"workload {workload} seed {seed} trace {int(trace)}", file=stream)
    print("provenance " + json.dumps(detail["provenance"], sort_keys=True), file=stream)
    print("samples " + json.dumps(detail["samples"], sort_keys=True), file=stream)
    print("fingerprint " + json.dumps(detail["fingerprint"], sort_keys=True), file=stream)
    for problem in problems:
        print(f"check failed: {problem}", file=stream)
    for name, m in metrics.items():
        print(f"{name} {m['value']} {m['unit']}", file=stream)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}), file=stream)
    return 0 if correct else 1
