"""Rewrite golden.json: the output hash of every input of every workload
for the default seed.

    python3 perfbench/golden.py

Later runs on the default seed count an op whose output hashes differently
as failed, so output bytes stay identical across changes.  Rewrite the
file only for a change that is meant to alter outputs.
"""

import json
import sys

from run import BENCH, DEFAULT_SEED, ROOT, Ledger

sys.path.insert(0, str(ROOT / "src"))

from workloads import WORKLOADS  # noqa: E402


def main() -> int:
    golden = {}
    for name, cls in WORKLOADS.items():
        wl = cls(DEFAULT_SEED)
        wl.setup()
        ledger = Ledger({})
        for i in range(wl.keys):
            ledger.settle(wl, i, wl.op(i), None)
        if ledger.failed:
            print(f"{name}: {ledger.failed} failed ops: {ledger.errors}", file=sys.stderr)
            return 1
        golden[name] = dict(sorted(ledger.seen.items()))
        print(f"{name}: {len(ledger.seen)} hashes")
    (BENCH / "golden.json").write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
