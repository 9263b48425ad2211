"""lyricmelody benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload beam|evaluate|cli --seed N \
        --seconds S --trace 0|1

``--workload all`` runs the three in turn and lists every metric by
workload, name and unit.

Run from anywhere; the package is imported from ``src/`` next to this
directory and nothing is installed or downloaded.  Inputs come from the
seed alone (``lyricmelody.synthetic`` and ``random``).  Scratch files go to
``.bench_work/`` at the root of the checkout.

``--trace 0`` times a closed loop with one client for ``--seconds`` of op
time (whole cycles, and at least the workload's minimum op count) and
prints the end-to-end metrics.  ``--trace 1`` is a separate run: each op
runs once plain and once with every traced function rebound (see
``tracer.py``), and the per-layer metrics come from the spans.  A layer the
named workload never calls is read from a short traced pass of the
workload that does; the run record names the source of every metric.

Every op's output is checked and hashed outside the timed region; a wrong
output, an exception or a non-zero exit counts as a failed op.  The last
line of standard output is the JSON result; the line before it is the run
record.  CPUs are not pinned and no machine setting is changed.
"""

from __future__ import annotations

import argparse
import importlib
import importlib.metadata
import json
import os
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Callable, Optional

from speed import Meter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
DEFAULT_SEED = 0
SETUP_REPEATS = 3
PROCESS_SAMPLES = 7
#: op time between two speed probes
PROBE_EVERY_S = 0.1


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("beam", "evaluate", "cli", "all"),
                        help="one workload, or all three one after another")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="small pools and op counts (self-test only)")
    return parser.parse_args(argv)


# ---------------------------------------------------------------------------
# op loops
# ---------------------------------------------------------------------------


class Ledger:
    """Attempted and failed op counts, plus the output-hash checks."""

    def __init__(self, golden: dict, tamper: Optional[Callable] = None):
        self.golden = golden
        self.tamper = tamper
        self.seen: dict[str, str] = {}
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def settle(self, wl, i: int, result, error: Optional[BaseException]) -> None:
        from workloads import CheckFailed, sha256

        self.attempted += 1
        try:
            if error is not None:
                raise error
            data = wl.output(i, result)
            if self.tamper is not None:
                data = self.tamper(i, data)
            wl.check(i, result, data)
            key, digest = wl.key(i), sha256(data)
            want = self.golden.get(key) or self.seen.setdefault(key, digest)
            if digest != want:
                raise CheckFailed(f"output of {key} hashes to {digest[:12]}, expected {want[:12]}")
        except Exception as exc:  # every failure is counted, none stops the run
            self.failed += 1
            if len(self.errors) < 5:
                self.errors.append(f"op {i} ({wl.key(i)}): {type(exc).__name__}: {exc}")


def timed_loop(wl, seconds: float, ledger: Ledger, meter) -> None:
    """Closed loop, one client; checks run between ops, off the clock."""
    i = 0
    while not (i % wl.cycle == 0 and i >= wl.min_ops and meter.total >= seconds):
        result, error, _ = meter.call(wl.op, i)
        ledger.settle(wl, i, result, error)
        i += 1


def traced_loop(wl, tracer, ledger: Ledger, meter, seconds: Optional[float] = None,
                ops: Optional[int] = None) -> int:
    """Each op once plain, then once traced (calls 2i and 2i+1 of the
    meter); runs ``ops`` ops, or whole cycles until ``seconds`` of op time
    (and the counted ops) are done.  Returns the number of ops."""
    i = 0
    while True:
        if ops is not None and i >= ops:
            return i
        if (ops is None and i % wl.cycle == 0 and i >= wl.count_ops
                and meter.total >= seconds):
            return i
        result, error, _ = meter.call(wl.op, i)
        ledger.settle(wl, i, result, error)
        uninstall = tracer.install()
        tracer.op = i
        try:
            result, error, _ = meter.call(wl.op, i, True)
        finally:
            tracer.op = -1
            uninstall()
        if hasattr(wl, "collect"):
            wl.collect(i, tracer)
        ledger.settle(wl, i, result, error)
        i += 1


# ---------------------------------------------------------------------------
# process measurements
# ---------------------------------------------------------------------------


def _processes(argv: list[str], samples: int,
               meter_cls=Meter.for_processes) -> list[tuple[subprocess.CompletedProcess, float, float]]:
    """Run a process ``samples`` times: (process, scaled seconds, scale)."""
    from workloads import cli_env

    env = cli_env()
    meter = meter_cls()
    procs = []
    for _ in range(samples):
        proc, error, _ = meter.call(
            lambda: subprocess.run(argv, env=env, cwd=ROOT, check=True,
                                   capture_output=True, text=True, timeout=120)
        )
        if error is not None:
            raise error
        procs.append(proc)
    return list(zip(procs, meter.scaled(), meter.factors()))


def process_ms(argv: list[str], samples: int = PROCESS_SAMPLES, meter_cls=Meter.for_processes) -> float:
    """Median scaled wall time of a process, in ms; a non-zero exit is an error."""
    return statistics.median(t for _, t, _ in _processes(argv, samples, meter_cls)) * 1e3


def import_times_ms(samples: int = PROCESS_SAMPLES) -> tuple[float, float]:
    """Median cumulative ``-X importtime`` of lyricmelody and of numpy, in
    scaled ms."""
    ours, numpy = [], []
    argv = [sys.executable, "-X", "importtime", "-c", "import lyricmelody"]
    for proc, _, scale in _processes(argv, samples):
        for line in proc.stderr.splitlines():
            if not line.startswith("import time:") or "|" not in line:
                continue
            _, cumulative, name = (part.strip() for part in line.split("|"))
            if name == "lyricmelody":
                ours.append(int(cumulative) / 1e3 * scale)
            elif name == "numpy":
                numpy.append(int(cumulative) / 1e3 * scale)
    return statistics.median(ours), (statistics.median(numpy) if numpy else 0.0)


def startup_ms() -> float:
    from workloads import CLI_CODE

    return process_ms([sys.executable, "-c", CLI_CODE, "--version"])


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


def op_meter(wl) -> Meter:
    return Meter.for_processes() if wl.name == "cli" else Meter(every=PROBE_EVERY_S)


def run_timed(args, workload_cls, import_s: float, golden: dict) -> tuple[dict, Ledger, object, dict]:
    setup = Meter()
    for _ in range(1 if args.tiny else SETUP_REPEATS):
        wl = workload_cls(args.seed, args.tiny)
        _, error, _ = setup.call(wl.setup)
        if error is not None:
            raise error
    ledger = Ledger(golden)
    meter = op_meter(wl)
    timed_loop(wl, args.seconds, ledger, meter)
    durations = meter.scaled()
    succeeded = ledger.attempted - ledger.failed
    usage = resource.RUSAGE_CHILDREN if wl.name == "cli" else resource.RUSAGE_SELF
    metrics = {
        "setup_s": (import_s + statistics.median(setup.scaled()), "s"),
        "ops_per_s": (succeeded / sum(durations), "ops/s"),
        "op_ms_p50": (statistics.median(durations) * 1e3, "ms"),
        "op_ms_p90": (statistics.quantiles(durations, n=10)[8] * 1e3, "ms"),
        "peak_rss_mb": (resource.getrusage(usage).ru_maxrss / 1024, "MB"),
    }
    raw = {
        "setup_repeat_s": statistics.median(setup.raw),
        "ops_per_s": succeeded / sum(meter.raw),
        "op_ms_p50": statistics.median(meter.raw) * 1e3,
        "op_ms_p90": statistics.quantiles(meter.raw, n=10)[8] * 1e3,
        "speed_probe_ms": statistics.median(meter.probes) * 1e3,
        "probes": len(meter.probes),
    }
    return metrics, ledger, wl, {"unscaled": raw}


def _traced(wl, tracer, ledger, meter, **until) -> dict:
    """Set up ``wl`` traced, run its traced loop and derive its layer metrics."""
    import layers

    setup = Meter()
    uninstall = tracer.install()
    try:
        _, error, _ = setup.call(wl.setup, tracer)
    finally:
        uninstall()
    if error is not None:
        raise error
    n = traced_loop(wl, tracer, ledger, meter, **until)
    factors = meter.factors()
    scale = {i: factors[2 * i + 1] for i in range(n)}
    scale[-1] = setup.factors()[0]
    plain = [t * f for t, f in list(zip(meter.raw, factors))[0::2]]
    found = layers.from_spans(tracer.spans, n, wl.count_ops, scale)
    found.update(layers.cli_commands(wl, plain))
    return found


def run_traced(args, workload_cls, golden_all: dict, tiny: bool) -> tuple[dict, Ledger, object, dict]:
    import layers
    from tracer import Tracer
    from workloads import WORKLOADS

    wl = workload_cls(args.seed, tiny)
    tracer = Tracer()
    ledger = Ledger(golden_all.get(wl.name, {}))
    meter = op_meter(wl)
    own = _traced(wl, tracer, ledger, meter, seconds=args.seconds)
    scaled = meter.scaled()
    own["bench.trace_overhead"] = sum(scaled[1::2]) / sum(scaled[0::2])

    passes = {}
    for name, cls in WORKLOADS.items():
        if name != wl.name:
            other = cls(args.seed, tiny)
            pass_ledger = Ledger(golden_all.get(name, {}))
            passes[name] = _traced(other, Tracer(), pass_ledger, op_meter(other),
                                   ops=other.count_ops)
            ledger.attempted += pass_ledger.attempted
            ledger.failed += pass_ledger.failed
            ledger.errors += pass_ledger.errors

    import_ms, numpy_ms = import_times_ms()
    processes = {
        # the interpreter is the process probe itself; scale it in-process
        "cli.interpreter_ms": process_ms([sys.executable, "-c", "pass"], meter_cls=Meter),
        "cli.import_ms": import_ms,
        "cli.import.numpy_ms": numpy_ms,
        "cli.version_ms": startup_ms(),
    }
    values, sources = layers.combine(wl.name, own, passes, processes)
    spans_file = ROOT / ".bench_work" / f"spans-{wl.name}-seed{args.seed}.jsonl"
    tracer.dump(spans_file)
    metrics = {name: (values[name], unit) for name, unit, _ in layers.PER_LAYER}
    return metrics, ledger, wl, {
        "metric_sources": sources, "spans": str(spans_file.relative_to(ROOT)),
    }


# ---------------------------------------------------------------------------
# run record
# ---------------------------------------------------------------------------


def git_sha() -> Optional[str]:
    """HEAD of the checkout, read from .git without running git; None when
    the checkout is not a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def numpy_version() -> Optional[str]:
    try:
        return importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        return None


def run_record(args, wl, ledger: Ledger) -> dict:
    succeeded = ledger.attempted - ledger.failed
    return {
        "workload": wl.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": git_sha(),
        "python": sys.version.split()[0],
        "numpy": numpy_version(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_pinning": "none; CPUs are not pinned",
        "machine_settings": "unchanged; the benchmark changes no machine setting",
        "attempted": ledger.attempted,
        "succeeded": succeeded,
        "failed": ledger.failed,
        "failed_share": ledger.failed / ledger.attempted,
        "errors": ledger.errors,
        "inputs": wl.properties(),
    }


def run_all(args) -> int:
    """Each workload in its own process; one line per metric, then a JSON
    result whose metric names are prefixed by the workload."""
    metrics, attempted, failed = {}, 0, 0
    for workload in ("beam", "evaluate", "cli"):
        argv = [sys.executable, str(BENCH / "run.py"), "--workload", workload,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)] + (["--tiny"] if args.tiny else [])
        proc = subprocess.run(argv, capture_output=True, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            return proc.returncode
        result = json.loads(proc.stdout.splitlines()[-1])
        attempted += result["attempted"]
        failed += result["failed"]
        print(f"{workload}: attempted {result['attempted']}, failed {result['failed']}")
        for name, m in result["metrics"].items():
            print(f"  {name:40s} {m['value']:14.4f} {m['unit']}")
            metrics[f"{workload}.{name}"] = m
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "lyricmelody" / "__init__.py").is_file():
        print(f"error: no lyricmelody sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(ROOT / "src"))
    importer = Meter()
    _, error, _ = importer.call(importlib.import_module, "workloads")  # imports lyricmelody
    if error is not None:
        raise error
    import workloads

    import_s = importer.scaled()[0]
    (ROOT / ".bench_work").mkdir(exist_ok=True)
    golden_all = {}
    if args.seed == DEFAULT_SEED and not args.tiny:
        golden_all = json.loads((BENCH / "golden.json").read_text())
    cls = workloads.WORKLOADS[args.workload]
    if args.trace:
        metrics, ledger, wl, extra = run_traced(args, cls, golden_all, args.tiny)
    else:
        metrics, ledger, wl, extra = run_timed(args, cls, import_s, golden_all.get(args.workload, {}))
    record = run_record(args, wl, ledger)
    record.update(extra)
    name = f"record-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (ROOT / ".bench_work" / name).write_text(json.dumps(record, indent=2))
    print("record " + json.dumps(record, sort_keys=True))
    print(json.dumps({
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
