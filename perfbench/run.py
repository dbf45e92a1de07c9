"""skelact benchmark: one workload, timed (``--trace 0``) or traced (``--trace 1``).

    python3 perfbench/run.py --workload train_t30 --seed 1 --seconds 25 --trace 0

Run from the repository root; the program is imported from ``src``.
Workloads (see BENCHMARK.json for why each was chosen):

- train_t30: prepare -> train -> eval -> analyze through ``skelact.cli.main``
  at T=30, M=2, B=4 with the paper's 10-block plan; times ``train``.
- eval_t300: ``skelact eval`` of a seeded checkpoint at T=300, M=1, B=1.

Each workload runs in its own worker process, one at a time, as a closed
loop with one client. A timed run starts three workers: all three set up
(imports, data generation from ``--seed``, network build and a checked
warm-up on fixed reference inputs), and ``setup_s`` is their median; the
first then measures for ``--seconds``, the others are started with
``--seconds 0``. A traced run starts one worker that alternates untraced
and traced passes, reports the per-layer metrics, the tracing overhead,
and whether traced passes left byte-identical outputs.

End-to-end metrics (``--trace 0``):

- setup_s: worker start to its first timed call, median of three workers.
- throughput: work items per second over every timed pass of the run;
  an item is a train-split sample per epoch (train_t30,
  ``train_samples_per_s``) or a test sample (eval_t300,
  ``eval_samples_per_s``), each timed over its own command.
- peak_rss_mb: ru_maxrss of the measuring worker, in MiB.

The throughputs share one metric name in the result line because every
end-to-end metric there must apply to every workload; they are printed
under their own names above it. ``fail_ratio`` (failed /
attempted operations) is printed the same way; the result line carries
both counts. Everything the run learns, including the environment record,
goes to ``.perfbench/`` at the root. The last line of standard output is
the result JSON.

The benchmark's own tests: ``PYTHONPATH=src python3 -m pytest perfbench``.
Stored reference outputs: ``PYTHONPATH=src python3 perfbench/worker.py
--write-reference`` rewrites ``perfbench/reference.json``.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import monotonic

from tracer import unit_of

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
THROUGHPUT_NAME = {"train_t30": "train_samples_per_s",
                   "eval_t300": "eval_samples_per_s"}
# Set-ups per timed run. On a 2-CPU shared host, one set-up's time spread
# by 11-17% of its median over 10 runs (interquartile range), against the
# 8.3% a third of setup_s's bound allows; the median of three spread by
# 9-13%. setup_s is the median of this many.
SETUPS = 3
# glibc keeps freed memory instead of returning it to the kernel. With its
# default, self-adjusting thresholds, whether a pass gets its ~1 GB of
# arrays back from the heap or page-faults all of it in again flips between
# passes of identical work, and eval passes differ by 2x. With memory kept,
# first-touch cost falls in the set-up's warm-up (setup_s) and memory
# shows in peak_rss_mb. No array in these workloads exceeds 32 MiB.
MALLOC_ENV = {"MALLOC_TRIM_THRESHOLD_": str(1 << 40),
              "MALLOC_MMAP_THRESHOLD_": str(32 << 20)}
# A run must end within 180 s; each worker gets what is left of this.
BUDGET_S = 170.0


def fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 1


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if ref.startswith("ref: "):
        target = ROOT / ".git" / ref[5:]
        return target.read_text().strip() if target.is_file() else None
    return ref


def run_worker(args, work: Path, seconds: int, deadline: float) -> dict:
    nproc = str(len(os.sched_getaffinity(0)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), str(HERE)] + [p for p in [env.get("PYTHONPATH")] if p])
    # BLAS threads at most the CPUs this process may use.
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[name] = nproc
    env.update(MALLOC_ENV)
    command = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(seconds),
               "--trace", str(args.trace), "--work", str(work),
               "--spawned-at", repr(monotonic())]
    try:
        done = subprocess.run(command, env=env, cwd=ROOT, capture_output=True,
                              text=True, timeout=max(deadline - monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        raise RuntimeError("worker did not finish within the run's time limit")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(f"worker exited {done.returncode}: {done.stderr.strip()[-2000:]}")
    return json.loads(lines[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(THROUGHPUT_NAME))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    deadline = monotonic() + BUDGET_S
    if not (ROOT / "src" / "skelact" / "__init__.py").is_file():
        return fail(f"no skelact sources under {ROOT / 'src'}")

    out = ROOT / ".perfbench"
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    out.mkdir(exist_ok=True)
    durations = [args.seconds] + ([] if args.trace else [0] * (SETUPS - 1))
    try:
        workers = [run_worker(args, out / f"{tag}-{index}", seconds, deadline)
                   for index, seconds in enumerate(durations)]
    except (RuntimeError, ValueError) as exc:
        return fail(str(exc))

    measured = workers[0]
    attempted = sum(w["attempted"] for w in workers)
    failed = sum(w["failed"] for w in workers)
    failures = [f for w in workers for f in w["failures"]]
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "env": dict(measured["env"], commit=git_commit()),
              "setup_s_each": [w["setup_s"] for w in workers], "failures": failures}

    if args.trace:
        metrics = {name: {"value": value, "unit": unit_of(name)}
                   for name, value in measured["per_layer"].items()}
        trace = measured["trace"]
        record.update(trace=trace, absent=measured["absent"])
        if "paper_config" in measured:
            paper = record["paper_config"] = measured["paper_config"]
            print(f"paper config T={paper['frames']}, M={paper['person_slots']}, "
                  f"B={paper['batch_size']}: {paper['status']} ({paper['reason']})")
        overhead = ("unknown" if trace["overhead"] is None
                    else f"{100 * trace['overhead']:+.1f}%")
        print(f"traced passes: {trace['passes']}; tracing overhead vs untraced "
              f"passes: {overhead}; traced outputs byte-identical to untraced: "
              f"{'yes' if trace['identical_outputs'] else 'NO'}")
        print("autodiff.alloc_mb_per_step is computed, not measured: data + grad "
              "bytes of every tensor constructed per step")
        for path, reason in measured["absent"].items():
            print(f"absent: {path}: {reason}")
    else:
        passes = measured["passes"]
        if not passes:
            return fail("no timed pass succeeded: " + "; ".join(failures[:3]))
        metrics = {
            "setup_s": {"value": statistics.median(w["setup_s"] for w in workers),
                        "unit": "s"},
            "throughput": {"value": measured["throughput"], "unit": "1/s"},
            "peak_rss_mb": {"value": measured["peak_rss_mb"], "unit": "MiB"},
        }
        record["passes"] = passes
        print(f"{THROUGHPUT_NAME[args.workload]}: {measured['throughput']:.4f} 1/s "
              f"({len(passes)} passes)")
        print(f"setup_s: {metrics['setup_s']['value']:.4f} s")
        print(f"peak_rss_mb: {measured['peak_rss_mb']:.1f} MiB")
    print(f"fail_ratio: {failed / max(attempted, 1):.4f} ({failed} of {attempted} "
          f"operations failed)")
    for failure in failures[:5]:
        print(f"failure: {failure}")
    print(f"env: {json.dumps(record['env'], sort_keys=True)}")

    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    (out / f"result-{tag}.json").write_text(
        json.dumps(dict(record, result=result), indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
