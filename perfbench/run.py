"""Run one dpledger benchmark workload and print its metrics.

    python3 perfbench/run.py --workload fresh-queries --seed 1 --seconds 20 --trace 0

Run it from the repository root; it imports ``dpledger`` from ``src/`` and
exits with code 2, printing no result, when the sources are not there.
The run repeats short trials of the workload (set-up, timed windows,
output checks, see ``workloads.py``) until the timed windows add up to
``--seconds``. ``--trace 0`` reports the end-to-end metrics and ``--trace 1``
the per-layer ones (see ``report.py``).

Every metric is printed as ``name value unit``. The last line of standard
output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``. The full result, with provenance, sample
counts and determinism fingerprints, goes to ``perfbench/out/``; a traced
run also writes the spans of its first traced trial there. A run whose
outputs fail a check prints no metrics and exits with code 1.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "dpledger" / "__init__.py").is_file():
        print(f"error: no dpledger sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench import report, workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; expected one of "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    return report.report(args.workload, args.seed, args.seconds, bool(args.trace),
                         workloads.Size(), report.MIN_TRIALS)


if __name__ == "__main__":
    sys.exit(main())
