"""Repo benchmark for the SoftmAP reproduction: prefill, decode and serve.

Run from the repository root::

    python3 perfbench/run.py                              # every workload
    python3 perfbench/run.py --workload decode --seed 3 --seconds 10
    python3 perfbench/run.py --workload prefill --trace 1  # per-layer run

A single workload runs in this process and prints its metrics, one per
line with its unit, then a last line holding one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--trace 0``
reports the end-to-end metrics (measured with tracing off); ``--trace 1``
reports the per-layer metrics of a traced run and writes its spans as
Chrome trace-event JSON.  ``--workload all`` (the default) runs each
workload in its own process, so that set-up time and peak memory belong to
one workload alone.  Every run also writes a record (seed, machine
fingerprint, every metric) under ``perfbench/out/``.

End-to-end metrics (every workload reports all of them):

``setup_s``
    The median over three cold starts (this process and two fresh
    interpreters) of import, construction (backends, model, server,
    provisioned plans) and the first cold call.
``peak_rss_mb``
    Peak resident memory of the workload's process.
``throughput_per_s``
    Work per second of timed work: softmax rows (``prefill``), generated
    tokens (``decode``) or requests served with 128 outstanding
    (``serve``, the capacity).
``latency_p50_ms``
    The median latency of one ``run`` call (``prefill``), one decode step
    (``decode``) or one request timed from its due time (``serve``); a
    failed operation counts as infinitely slow.

numpy's BLAS is pinned to one thread (see ``BLAS_THREADS``).

The tail is printed but not gated: ``latency_p95_ms`` and
``latency_p99_ms`` are the median, over consecutive windows of 1000
samples, of each window's 95th / 99th percentile.  On a shared 2-core host
their run-to-run spread (up to 0.27 of the median for p95 on ``serve``,
more for p99) is as wide as the largest bound the benchmark may set.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"
WORKLOAD_NAMES = ("prefill", "decode", "serve")

E2E_UNITS = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "throughput_per_s": "1/s",
    "latency_p50_ms": "ms",
}

#: The names the reported values go by on each workload, with their units.
ALIASES = {
    "prefill": {"throughput_per_s": ("prefill_rows_per_s", "rows/s")},
    "decode": {"throughput_per_s": ("decode_tokens_per_s", "tokens/s")},
    "serve": {"throughput_per_s": ("serve_capacity_rps", "req/s"),
              "latency_p50_ms": ("serve_p50_ms.light", "ms"),
              "latency_p99_ms": ("serve_p99_ms.light", "ms")},
}

TAIL_WINDOW = 1000
#: Cold set-ups per untraced run (the run's own plus fresh interpreters).
SETUP_REPS = 3
#: numpy's BLAS runs on one thread in every workload.  On a 2-vCPU host the
#: decode matmuls ran no faster with OpenBLAS's default two threads (the
#: second one mostly spins), and decode's run-to-run spread was twice as wide.
BLAS_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    parser.add_argument("--setup-only", action="store_true",
                        help="print the seconds of one cold set-up and exit "
                             "(the fresh-interpreter repetitions behind setup_s)")
    return parser.parse_args(argv)


def fingerprint() -> Dict[str, Any]:
    """The machine a record was measured on: the repo's trajectory
    fingerprint (platform, Python, numpy) plus core count and CPU model."""
    from repro.utils.trajectory import machine_fingerprint

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {**machine_fingerprint(), "nproc": os.cpu_count(), "cpu": cpu}


def finite(value: float) -> float:
    """JSON has no infinity: a failed operation's latency reads as 1e300."""
    return value if math.isfinite(value) else 1e300


def windowed_percentile(latencies: List[float], q: float) -> float:
    """Median over consecutive windows of TAIL_WINDOW samples (one window
    when there are fewer) of each window's ``q``-th percentile: a burst of
    host contention moves one window, not the median of them."""
    import numpy as np

    data = np.asarray(latencies, dtype=np.float64)
    windows = max(1, data.size // TAIL_WINDOW)
    size = data.size // windows
    return statistics.median(
        float(np.percentile(data[i * size:(i + 1) * size], q)) for i in range(windows)
    )


def peak_rss_mb() -> float:
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def setup_once(args: argparse.Namespace):
    """Import, build the workload's inputs (untimed) and set it up once;
    returns the workloads module, the workload, its state and the set-up
    seconds."""
    start = time.perf_counter()
    import workloads  # numpy and the repro stack: the import part of set-up

    import_s = time.perf_counter() - start
    workload = workloads.WORKLOADS[args.workload](args.seed)
    start = time.perf_counter()
    state = workload.setup()
    return workloads, workload, state, import_s + time.perf_counter() - start


def setup_reps(args: argparse.Namespace) -> List[float]:
    """Set-up seconds of ``SETUP_REPS - 1`` fresh interpreters, one after
    the other, each importing and setting up the workload from cold."""
    command = [
        sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
        "--seed", str(args.seed), "--setup-only",
    ]
    reps = []
    for _ in range(SETUP_REPS - 1):
        done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                              timeout=300, check=True)
        reps.append(float(done.stdout.strip().splitlines()[-1]))
    return reps


def run_single(args: argparse.Namespace) -> Tuple[Dict[str, Any], List[str]]:
    """Run one workload in this process; return its result and report."""
    reps = [] if args.trace else setup_reps(args)
    workloads, workload, state, setup_s = setup_once(args)
    reps.append(setup_s)
    try:
        if args.trace:
            result = workload.traced(state, args.seconds)
        else:
            measurement = workload.measure(state, args.seconds)
    finally:
        workload.release(state)
        workload.close()

    lines: List[str] = []
    values: Dict[str, Tuple[float, str]] = {}
    record: Dict[str, Any] = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "inputs_sha256": workload.inputs_digest(),
        "machine": fingerprint(),
    }
    if args.trace:
        attempted, failed = result.attempted, result.failed
        metrics = {
            name: {"value": float(result.metrics[name]), "unit": unit}
            for name, unit in workloads.LAYER_UNITS.items()
        }
        values.update((name, (m["value"], m["unit"])) for name, m in metrics.items())
        values.update(result.extras)
        OUT.mkdir(parents=True, exist_ok=True)
        trace_path = OUT / f"{args.workload}-seed{args.seed}.trace.json"
        trace_path.write_text(json.dumps(result.tracer.chrome_trace(args.workload)))
        record["trace_file"] = str(trace_path.relative_to(ROOT))
        record["flags"] = result.flags
        lines.extend(f"FLAG {flag}" for flag in result.flags)
        lines.append(f"spans: {len(result.tracer.spans)} written to {record['trace_file']}")
    else:
        attempted, failed = measurement.attempted, measurement.failed
        latencies = measurement.latencies
        import numpy as np

        metrics = {
            "setup_s": statistics.median(reps),
            "peak_rss_mb": peak_rss_mb(),
            "throughput_per_s": measurement.throughput,
            "latency_p50_ms": finite(float(np.percentile(latencies, 50)) * 1e3),
        }
        metrics = {n: {"value": float(v), "unit": E2E_UNITS[n]} for n, v in metrics.items()}
        values.update((name, (m["value"], m["unit"])) for name, m in metrics.items())
        for q in (95, 99):
            values[f"latency_p{q}_ms"] = (finite(windowed_percentile(latencies, q) * 1e3), "ms")
        values["latency_samples"] = (len(latencies), "count")
        for name, (alias, unit) in ALIASES[args.workload].items():
            values[alias] = (values[name][0], unit)
        values.update(measurement.extras)
        record["setup_reps_s"] = reps
    values["failed_frac"] = (failed / attempted if attempted else 1.0, "ratio")
    correct = failed == 0 and attempted > 0
    result_json = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    record.update(result_json)
    record["report"] = {name: {"value": v, "unit": u} for name, (v, u) in values.items()}
    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1)
    )

    machine = record["machine"]
    header = [
        f"perfbench workload={args.workload} seed={args.seed} "
        f"seconds={args.seconds:g} trace={args.trace}",
        f"machine: nproc={machine['nproc']} cpu={machine['cpu']!r} "
        f"python={machine['python']} numpy={machine['numpy']}",
        f"inputs: sha256 {record['inputs_sha256']} (a function of the seed alone)",
    ]
    width = max(len(name) for name in values)
    body = [f"  {name:<{width}}  {value:.6g} {unit}" for name, (value, unit) in values.items()]
    body.append(f"  outputs checked: {attempted} attempted, {failed} failed")
    return result_json, header + lines + body


def run_all(args: argparse.Namespace) -> int:
    """Each workload in its own process, then one summary."""
    combined: Dict[str, Any] = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        command = [
            sys.executable, str(Path(__file__).resolve()), "--workload", name,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace),
        ]
        done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=900)
        output = done.stdout.strip().splitlines()
        print("\n".join(output[:-1]))
        if done.returncode != 0 or not output:
            sys.stderr.write(done.stderr)
            print(f"perfbench: workload {name} exited with {done.returncode}", file=sys.stderr)
            return 1
        result = json.loads(output[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    os.environ.update(BLAS_THREADS)  # before numpy loads; child processes inherit it
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(ROOT / "src"))
    if args.setup_only:
        _, workload, state, setup_s = setup_once(args)
        workload.release(state)
        workload.close()
        print(repr(setup_s))
        return 0
    result, report = run_single(args)
    print("\n".join(report))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
