"""One workload process: set-up, then timed passes (or traced passes).

Started by run.py, never by hand except with ``--write-reference``:

    PYTHONPATH=src python3 perfbench/worker.py --write-reference

which runs each workload's reference inputs at the current commit and
stores their outputs in perfbench/reference.json.

The last line of standard output is one JSON object with this process's
set-up time, peak RSS, ledger and measurements.
"""
from __future__ import annotations

import argparse
import ctypes
import glob
import itertools
import json
import os
import platform
import resource
import statistics
import sys
import tempfile
from pathlib import Path
from time import monotonic, perf_counter

import numpy as np

import skelact
from tracer import Tracer
from workloads import REFERENCE_FILE, WORKLOADS, Ledger


def blas_record() -> dict:
    """OpenBLAS version and thread count in effect, read from numpy's copy."""
    config = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    record = {"library": f"{config.get('name')} {config.get('version')}", "threads": None}
    libs = os.path.join(os.path.dirname(np.__file__) + ".libs", "*openblas*")
    for path in glob.glob(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                record["threads"] = getter()
                return record
    return record


def environment(seed: int) -> dict:
    mem_total = None
    with open("/proc/meminfo") as handle:
        for line in handle:
            if line.startswith("MemTotal:"):
                mem_total = int(line.split()[1]) // 1024
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "mem_total_mb": mem_total,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_record(),
        "malloc": {name: os.environ.get(name) for name in
                   ("MALLOC_TRIM_THRESHOLD_", "MALLOC_MMAP_THRESHOLD_")},
        "skelact": getattr(skelact, "__version__", None),
        "seed": seed,
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def timed_passes(workload, seconds: float) -> list[tuple[int, float]]:
    """Closed loop until the deadline; (items, seconds) of each good pass.

    Every pass must leave the same output bytes as the first one. With
    ``seconds`` 0 no pass runs: the process only sets up.
    """
    passes, first = [], None
    deadline = perf_counter() + seconds
    while perf_counter() < deadline:
        result = workload.run_pass(first)
        if result.seconds is not None:
            first = first if first is not None else result.outputs
            passes.append((result.items, result.seconds))
    return passes


def traced_passes(workload, tracer: Tracer, seconds: float) -> dict:
    """Alternate untraced and traced passes until the deadline.

    The untraced passes give the tracing overhead; each traced pass must
    leave the same output bytes as the first untraced one.
    """
    plain, traced, first, identical = [], [], None, True
    deadline = perf_counter() + seconds
    for run in itertools.count():
        result = workload.run_pass(first)
        if result.seconds is not None:
            first = first if first is not None else result.outputs
            plain.append(result.seconds)
        tracer.install(run)
        try:
            result = workload.run_pass(first)
        finally:
            tracer.uninstall()
        identical = identical and first is not None and result.outputs == first
        if result.seconds is not None:
            traced.append(result.seconds)
        if perf_counter() >= deadline:
            break
    overhead = (statistics.median(traced) / statistics.median(plain) - 1.0
                if plain and traced else None)
    return {"passes": run + 1, "overhead": overhead, "identical_outputs": identical,
            "untraced_s": plain, "traced_s": traced}


def paper_config(workload, alloc_mb_per_step: float, mem_total_mb: int) -> dict:
    """The paper's training configuration, recorded but not run.

    A training step at T=300, M=2, B=4 does not fit this class of machine
    today; running it is left to a later change of the benchmark. The
    estimate scales the measured allocation per step by B*M*T.
    """
    paper = {"frames": 300, "person_slots": 2, "batch_size": 4}
    scale = (paper["frames"] * paper["person_slots"] * paper["batch_size"]) / (
        workload.frames * workload.slots * workload.batch)
    estimate = alloc_mb_per_step * scale
    return dict(paper, status="not_run", estimated_alloc_mb_per_step=estimate,
                reason=f"about {estimate:.0f} MB of tensor data and gradients per "
                       f"step against {mem_total_mb} MiB of memory")


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--work", type=Path)
    parser.add_argument("--spawned-at", type=float,
                        help="time.monotonic() of the parent just before it "
                             "started this process")
    parser.add_argument("--write-reference", action="store_true")
    args = parser.parse_args()
    if args.write_reference:
        return write_reference()

    ledger, tracer = Ledger(), Tracer()
    workload = WORKLOADS[args.workload](args.work, args.seed, ledger, tracer)
    workload.setup()
    result = {"setup_s": monotonic() - args.spawned_at, "env": environment(args.seed)}
    if args.trace:
        result["trace"] = traced_passes(workload, tracer, args.seconds)
        result["per_layer"] = tracer.metrics(result["trace"]["passes"])
        result["absent"] = tracer.absent
        tracer.write(args.work.parent / f"spans-{args.workload}-seed{args.seed}.jsonl")
        if args.workload == "train_t30":
            result["paper_config"] = paper_config(
                workload, result["per_layer"]["autodiff.alloc_mb_per_step"],
                result["env"]["mem_total_mb"])
    else:
        passes = timed_passes(workload, args.seconds)
        result["passes"] = passes
        if passes:
            result["throughput"] = (sum(items for items, _ in passes)
                                    / sum(seconds for _, seconds in passes))
    result.update(peak_rss_mb=peak_rss_mb(), attempted=ledger.attempted,
                  failed=ledger.failed, failures=ledger.failures)
    print(json.dumps(result))
    return 0


def write_reference() -> int:
    """Run every workload's set-up and store its reference outputs."""
    stored = {}
    for name, cls in sorted(WORKLOADS.items()):
        with tempfile.TemporaryDirectory(dir=Path.cwd()) as work:
            workload = cls(Path(work), 0, Ledger(), Tracer())
            workload.setup()
            values = workload.reference_values()
            if values:
                stored[name] = values
    REFERENCE_FILE.write_text(json.dumps(stored, indent=1) + "\n")
    print(f"wrote {REFERENCE_FILE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
