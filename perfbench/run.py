"""Run one benchmark workload and print its result as the last stdout line.

    python3 perfbench/run.py --workload {ingest,finetune,classify,pretrain,all}
        --seed N --seconds S --trace {0,1} [--scale {full,tiny}]

Run it from the repository root. With ``--trace 0`` the result holds the
end-to-end metrics, measured with tracing off; with ``--trace 1`` it holds
the per-layer metrics of a traced run. ``--workload all`` runs every
workload, each in a fresh interpreter, one after the other. See
``perfbench/README.md`` for the metrics and why each workload exists.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()  # before the heavy imports, which set-up time covers

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
NPROC = len(os.sched_getaffinity(0))
WORKLOAD_NAMES = ("ingest", "finetune", "classify", "pretrain")


def _cap_blas_threads() -> str:
    """Cap BLAS threads at nproc; must run before numpy is imported."""
    requested = os.environ.get("OPENBLAS_NUM_THREADS", "")
    threads = str(min(int(requested), NPROC)) if requested.isdigit() and int(requested) > 0 else str(NPROC)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = threads
    return threads


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--scale", choices=("full", "tiny"), default="full",
                   help="tiny: the tests' model size and a few hundred flows (smoke test)")
    return p.parse_args(argv)


def git_commit() -> str | None:
    """HEAD's commit read from .git without running git; None outside a clone."""
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


def source_sha256() -> str:
    """One digest over the package sources, which identifies the code without git."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "trafficmoe").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def run_record(args, params: dict, blas_threads: str, inputs: dict) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "scale": args.scale,
        "params": params,
        "git_commit": git_commit(),
        "source_sha256": source_sha256(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads": int(blas_threads),
        "nproc": NPROC,
        **inputs,
    }


class Loop:
    """Runs operations one at a time and counts attempts and failures."""

    def __init__(self, workload):
        self.workload = workload
        self.attempted = 0
        self.failed = 0

    def one(self, tracer=None):
        """Prepare, time and check one operation.

        Returns (seconds, output or None if it failed, growth of the tensor
        engine's FLOP and allocated-byte counters during the operation).
        """
        from trafficmoe import tensor as T

        wl, i = self.workload, self.attempted
        self.attempted += 1
        wl.prepare(i)
        flops, alloc = T.matmul_flops(), T.alloc_bytes()
        if tracer is not None:
            tracer.op = i
        start = time.perf_counter()
        try:
            out = wl.run(i)
            problems = []
        except Exception:  # a failed operation is counted, and the run goes on
            out, problems = None, [traceback.format_exc()]
        elapsed = time.perf_counter() - start
        if tracer is not None:
            tracer.op = None
        flops, alloc = T.matmul_flops() - flops, T.alloc_bytes() - alloc
        if out is not None:
            problems = wl.check(i, out)
        if problems:
            self.failed += 1
            print(f"operation {i} failed: {'; '.join(problems)}", file=sys.stderr)
            out = None
        return elapsed, out, flops, alloc


def end_to_end(loop: Loop, wl, seconds: float, setup_s: float):
    """Operations back to back, tracing off, until their timed total reaches ``seconds``."""
    times, done = [], []
    while sum(times) < seconds:
        elapsed, out, _, _ = loop.one()
        times.append(elapsed)
        if out is not None:
            done.append(out)
    per_s = sum(wl.items(o) for o in done) / sum(times)
    p50_ms = statistics.median(times) * 1e3
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    named = {"setup_s": (setup_s, "s"), "peak_rss_mb": (peak_mb, "MB")}
    if done:
        named.update(wl.named_metrics(per_s, p50_ms, done))
    named["samples"] = (len(times), "count")
    print("op_times_ms " + " ".join(f"{t * 1e3:.1f}" for t in times))
    metrics = {
        "setup_s": {"value": setup_s, "unit": "s"},
        "throughput": {"value": per_s, "unit": "items/s"},
        "op_p50_ms": {"value": p50_ms, "unit": "ms"},
        "peak_rss_mb": {"value": peak_mb, "unit": "MB"},
    }
    return metrics, named


def traced(loop: Loop, tracing, seconds: float, spans_path: Path):
    """Untraced and traced operations in turn, so slow drift in machine speed
    hits both alike; per-layer metrics come from the traced ones."""
    tracer = tracing.Tracer()
    plain, timed, flops, alloc = [], [], 0, 0
    while sum(plain) + sum(timed) < seconds or not timed:
        if len(plain) <= len(timed):
            plain.append(loop.one()[0])
            continue
        tracer.install()
        try:
            elapsed, _, op_flops, op_alloc = loop.one(tracer)
        finally:
            tracer.uninstall()
        timed.append(elapsed)
        flops += op_flops
        alloc += op_alloc
    tracer.write(spans_path)
    n = len(timed)
    values = tracer.layer_metrics(n)
    values["tensor.matmul.gflop"] = flops / n / 1e9
    values["tensor.alloc_mb"] = alloc / n / 2**20
    values["trace_overhead_frac"] = statistics.median(timed) / statistics.median(plain) - 1
    units = tracing.per_layer_units()
    metrics = {name: {"value": values[name], "unit": units[name][0]} for name in units}
    named = {"trace_spans": (len(tracer.spans), "count"), "traced_ops": (n, "count"),
             "untraced_ops": (len(plain), "count")}
    return metrics, named


def run_workload(args) -> int:
    if not (SRC / "trafficmoe" / "__init__.py").is_file():
        print(f"error: no trafficmoe sources under {SRC}; run from a repository checkout", file=sys.stderr)
        return 2
    blas_threads = _cap_blas_threads()
    sys.path.insert(0, str(SRC))
    import workloads
    import tracer as tracing

    params = workloads.PARAMS[args.scale][args.workload]
    work = ROOT / ".perfbench-work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    wl = workloads.WORKLOADS[args.workload](params, args.seed, work)
    try:
        wl.build()
        loop = Loop(wl)
        loop.one()  # warm-up: first-operation costs stay out of the timed region
        setup_s = time.perf_counter() - T_START
        if args.trace == 0:
            metrics, named = end_to_end(loop, wl, args.seconds, setup_s)
        else:
            spans = ROOT / ".perfbench-work" / "traces" / f"{args.workload}-seed{args.seed}.jsonl"
            metrics, named = traced(loop, tracing, args.seconds, spans)
        print("record " + json.dumps(run_record(args, params, blas_threads, wl.record), sort_keys=True))
        for name, (value, unit) in named.items():
            print(f"metric {name} = {value:.6g} {unit}")
        print(json.dumps({
            "correct": loop.failed == 0,
            "attempted": loop.attempted,
            "failed": loop.failed,
            "metrics": metrics,
        }))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0


def run_all(args) -> int:
    """Every workload in its own interpreter; metric names gain a workload prefix."""
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace), "--scale", args.scale]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"error: workload {name} exited {proc.returncode}", file=sys.stderr)
            return proc.returncode or 2
        for line in lines[:-1]:
            print(f"[{name}] {line}")
        result = json.loads(lines[-1])
        summary["correct"] = summary["correct"] and result["correct"]
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            summary["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(summary))
    return 0


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
