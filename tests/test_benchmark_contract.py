"""The library still serves the benchmark under ``perfbench/``.

perfbench drives dpledger through the names exercised here. Its tracer
skips a target that no longer exists instead of failing, and its checks
read fields of the chain and the receipts, so a deletion in the library
could otherwise go unnoticed until a benchmark run. This guard only reads
``perfbench/``.
"""

import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench import checks, spans, workloads  # noqa: E402

from dpledger import Network, ReceiptStatus  # noqa: E402

from conftest import make_query, make_write  # noqa: E402


@pytest.mark.parametrize("target", spans.TARGETS, ids=lambda t: t[1])
def test_every_traced_target_resolves(target):
    module_name, path = target[:2]
    assert spans._resolve(module_name, path) is not None


def _small_run(reuse):
    """Writes, then every category asked of each peer in two rounds; the
    network and the key of each query, in submission order."""
    net = Network(seed=5, reuse_enabled=reuse, epsilon_t=10.0)
    net.register_client(workloads.LOADER)
    net.register_client(workloads.REQUESTER)
    for i in range(20):
        net.submit(workloads.LOADER, make_write(quantity=1 + i, color=("red", "blue")[i % 2]))
    net.run_until_idle()
    keys = []
    for _ in range(2):
        for color in ("red", "blue"):
            for peer in net.channels[checks.CHANNEL].members:
                query = make_query(color=color)
                net.submit(workloads.REQUESTER, query, eps_f=0.5, target_peer=peer)
                keys.append(query.key)
        net.tick()
    net.run_until_idle()
    return net, keys


@pytest.mark.parametrize("reuse", [False, True], ids=["naive", "reuse"])
def test_benchmark_checks_pass_on_a_small_run(tmp_path, reuse):
    net, keys = _small_run(reuse)
    statuses = [r.status for r in net.receipts]
    assert (ReceiptStatus.CACHED in statuses) is reuse
    assert checks.receipt_problems(net.receipts) == []
    assert checks.chain_problems(net, {}) == []
    assert checks.committed_answer_problems(net, net.receipts) == []
    if reuse:
        # What a cached receipt holds is what the repeat-queries check reads.
        queries = [r for r in net.receipts if r.kind == "query"]
        assert checks.repeat_answer_problems(queries, keys) == []
    trial = workloads.Trial(tmp_path)
    trial.observe([(net, net.receipts)])
    assert trial.counts["committed_txs"] == statuses.count(ReceiptStatus.COMMITTED)
    assert trial.counts["queries"] == 8
