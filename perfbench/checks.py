"""Output checks run after each timed window, outside it.

Each check returns a list of problems; an empty list means the outputs are
correct. The checks recompute what they compare against from the chain or
from the generated inputs, so they do not trust the state they check.
"""

from __future__ import annotations

import time
from fractions import Fraction
from typing import Dict, Iterable, List, Sequence, Tuple

from dpledger import Aggregate, ReceiptStatus, normalize, replay_chain, verify_chain

CHANNEL = "mychannel"
OK_STATUSES = (ReceiptStatus.COMMITTED, ReceiptStatus.CACHED)

# budget-155 spends these totals at every seed: its calibrated schedule fixes
# the fresh and repeated epsilon sums, and the shuffle only reorders them.
BUDGET_155_NAIVE = 8.9
BUDGET_155_REUSE = 5.7
BUDGET_TOLERANCE = 1e-6


def _exact(value: float) -> Fraction:
    return Fraction(repr(float(value)))


def chain_problems(net, stats: Dict[str, float]) -> List[str]:
    """Check every member's chain and world state of the benchmark channel.

    - every member holds the same chain, and ``verify_chain`` accepts it;
    - replaying the chain gives each member's world state, byte for byte;
    - the fresh epsilon in the committed query effects adds up to the
      accountant's spent total and stays within the threshold.

    Adds the time spent in ``verify_chain`` and ``replay_chain`` and the
    number of blocks checked to ``stats``.
    """
    channel = net.channels[CHANNEL]
    problems: List[str] = []
    chains = [net.peers[peer_id].chains[CHANNEL] for peer_id in channel.members]
    reference = chains[0]
    for peer_id, chain in zip(channel.members, chains):
        if chain != reference:
            problems.append(f"{peer_id}: chain differs from {channel.members[0]}")
        t0 = time.perf_counter()
        verified = verify_chain(chain)
        t1 = time.perf_counter()
        replayed = replay_chain(chain, CHANNEL).serialize()
        t2 = time.perf_counter()
        stats["verify_s"] = stats.get("verify_s", 0.0) + (t1 - t0)
        stats["replay_s"] = stats.get("replay_s", 0.0) + (t2 - t1)
        stats["checked_blocks"] = stats.get("checked_blocks", 0) + len(chain) - 1
        if not verified:
            problems.append(f"{peer_id}: verify_chain rejects the chain")
        if replayed != net.peers[peer_id].states[CHANNEL].serialize():
            problems.append(f"{peer_id}: world state differs from the replayed chain")

    fresh = sum((_exact(env.effect.record.epsilon_spent)
                 for block in reference for env in block.envelopes
                 if env.effect is not None and not env.effect.record.response.reused),
                Fraction(0))
    if float(fresh) != channel.accountant.accumulated():
        problems.append(f"fresh epsilon on the chain {float(fresh)!r} != accountant "
                        f"total {channel.accountant.accumulated()!r}")
    if fresh > _exact(channel.accountant.epsilon_t):
        problems.append(f"fresh epsilon on the chain {float(fresh)!r} exceeds "
                        f"the threshold {channel.accountant.epsilon_t!r}")
    return problems


def receipt_problems(receipts: Iterable) -> List[str]:
    """Every receipt ended committed or cached."""
    bad = [r for r in receipts if r.status not in OK_STATUSES]
    if not bad:
        return []
    first = bad[0]
    return [f"{len(bad)} receipts did not complete, first {first.tx_id[:12]}: "
            f"{first.status.value} {first.reject_reason}"]


def aggregate_cells(writes: Iterable) -> Dict[tuple, Tuple[int, int]]:
    """(count, quantity sum) per normalized attribute cell, folded from the writes.

    Deliberately separate from ``WorldState``'s fold: it is the oracle the
    report rows are checked against.
    """
    cells: Dict[tuple, List[int]] = {}
    for tx in writes:
        triple = (normalize(tx.customer_name), normalize(tx.product_name),
                  normalize(tx.color))
        for mask in range(8):
            cell = tuple(v if mask >> i & 1 else None for i, v in enumerate(triple))
            slot = cells.setdefault(cell, [0, 0])
            slot[0] += 1
            slot[1] += tx.quantity
    return {cell: (c, q) for cell, (c, q) in cells.items()}


def exact_answer(cells: Dict[tuple, Tuple[int, int]], key) -> float:
    count, qty = cells.get((key.customer_name, key.product_name, key.color), (0, 0))
    return float(count if key.aggregate is Aggregate.COUNT else qty)


def written_total_problems(net, writes: Sequence) -> List[str]:
    """Each member's world state holds exactly the generated writes."""
    want = (len(writes), sum(tx.quantity for tx in writes))
    problems = []
    for peer_id in net.channels[CHANNEL].members:
        got = net.peers[peer_id].states[CHANNEL].aggregate_cell(None, None, None)
        if tuple(got) != want:
            problems.append(f"{peer_id}: holds (count, sum) {tuple(got)}, wrote {want}")
    return problems


def committed_answer_problems(net, receipts: Iterable) -> List[str]:
    """The answer each client received is the one committed on the chain."""
    on_chain = {env.tx_id: env.effect.record.response
                for block in net.peers[net.channels[CHANNEL].members[0]].chains[CHANNEL]
                for env in block.envelopes if env.effect is not None}
    wrong = sum(1 for r in receipts
                if r.status is ReceiptStatus.COMMITTED and on_chain.get(r.tx_id) != r.response)
    return [f"{wrong} committed answers differ from the chain"] if wrong else []


def repeat_answer_problems(receipts: Sequence, keys: Sequence) -> List[str]:
    """All answers to one category are identical, across repeats and peers."""
    first: dict = {}
    differing = set()
    for receipt, key in zip(receipts, keys):
        value = receipt.response.value if receipt.response is not None else None
        if first.setdefault(key, value) != value:
            differing.add(key)
    if differing:
        return [f"{len(differing)} categories received differing answers"]
    return []


def scenario_problems(report: dict, schedule) -> List[str]:
    """A shipped scenario's report matches its generated schedule.

    Each row's exact answer equals the fold of the generated writes, and
    budget-155 spends its seed-independent totals.
    """
    problems = []
    name = report["config"]["name"]
    rows = report["rows"]
    if len(rows) != len(schedule.queries):
        problems.append(f"{name}: {len(rows)} rows for {len(schedule.queries)} queries")
    cells = aggregate_cells(tx for _, tx in schedule.writes)
    wrong = sum(1 for row, plan in zip(rows, schedule.queries)
                if row["exact"] != exact_answer(cells, plan.key)
                or row["category"] != plan.key.label())
    if wrong:
        problems.append(f"{name}: {wrong} rows disagree with the generated writes")
    if name == "budget-155":
        for mode, want in (("naive", BUDGET_155_NAIVE), ("reuse", BUDGET_155_REUSE)):
            got = report[f"{mode}_eps_sum"]
            if abs(got - want) > BUDGET_TOLERANCE:
                problems.append(f"budget-155: {mode} spent {got!r}, expected {want}")
    return problems
