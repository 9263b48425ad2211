"""Self-test of the benchmark itself.

    python3 perfbench/selftest.py

1. A tiny run of every workload, untraced and traced, prints exactly the
   metrics BENCHMARK.json names, each with its unit, and no failed op.
2. One corrupted output per workload (a flipped MIDI pitch byte, or a
   flipped digit in a report) is counted as exactly one failed op.
3. In a directory holding only BENCHMARK.json and the benchmark, the run
   exits non-zero without printing a result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

from run import BENCH, ROOT, Ledger, timed_loop
from speed import Meter

sys.path.insert(0, str(ROOT / "src"))

from workloads import WORKLOADS  # noqa: E402

RUN = [sys.executable, str(BENCH / "run.py")]


def flip(data: bytes) -> bytes:
    """Flip one byte that changes what the output says: the first note's
    pitch in MIDI (after the 22-byte header), else the first digit."""
    out = bytearray(data)
    if data.startswith(b"MThd"):
        k = data.index(b"\x90", 22) + 1
    else:
        k = next(k for k, b in enumerate(data) if 0x30 <= b <= 0x39)
    out[k] ^= 1
    return bytes(out)


def check_metrics(spec: dict) -> None:
    for workload in WORKLOADS:
        for trace, group in ((0, "end_to_end"), (1, "per_layer")):
            proc = subprocess.run(
                RUN + ["--workload", workload, "--seconds", "1", "--tiny", "--trace", str(trace)],
                capture_output=True, text=True, timeout=600,
            )
            assert proc.returncode == 0, proc.stderr
            result = json.loads(proc.stdout.splitlines()[-1])
            assert set(result) == {"correct", "attempted", "failed", "metrics"}, result
            assert result["correct"] and result["failed"] == 0, proc.stdout
            want = {m["name"]: m["unit"] for m in spec[group]}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            assert got == want, (workload, trace, got, want)
            assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
            print(f"PASS {workload} --trace {trace}: {len(got)} metrics with units")


def check_corruption() -> None:
    for name, cls in WORKLOADS.items():
        wl = cls(1, tiny=True)
        wl.setup()
        target = next(i for i in range(wl.keys) if name != "cli" or wl.command(i).startswith("generate."))

        def tamper(i: int, data: bytes) -> bytes:
            return flip(data) if i == target else data

        ledger = Ledger({}, tamper)
        timed_loop(wl, 0.0, ledger, Meter())
        assert ledger.failed == 1, (name, ledger.failed, ledger.errors)
        print(f"PASS {name}: a flipped output byte in op {target} is one failed op "
              f"of {ledger.attempted} ({ledger.errors[0]})")


def check_bare_directory() -> None:
    bare = ROOT / ".bench_work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(BENCH, bare / BENCH.name, ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, str(bare / BENCH.name / "run.py"), "--workload", "beam",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180,
    )
    shutil.rmtree(bare)
    assert proc.returncode != 0 and not proc.stdout.strip(), (proc.returncode, proc.stdout)
    print(f"PASS bare directory: exit {proc.returncode}, {proc.stderr.strip()}")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    check_corruption()
    check_bare_directory()
    check_metrics(spec)
    return 0


if __name__ == "__main__":
    sys.exit(main())
