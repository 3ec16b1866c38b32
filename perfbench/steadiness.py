"""Run one workload once per seed and report each metric's spread.

    python3 perfbench/steadiness.py --workload finetune --seeds 1-10 [--trace 0]

Runs ``perfbench/run.py`` one seed after another, each in its own
interpreter, with ``run_seconds`` from ``BENCHMARK.json``. For every metric
it prints the median, the quartiles (``statistics.quantiles(n=4)``), the
quartile distance as a share of the median and the metric's bound.
Per-run results go to ``.perfbench-work/steadiness/`` as JSON lines.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seed_list(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    out = ROOT / ".perfbench-work" / "steadiness" / f"{args.workload}-trace{args.trace}.jsonl"
    out.parent.mkdir(parents=True, exist_ok=True)
    values: dict[str, list[float]] = {}
    with open(out, "a") as log:
        for seed in seed_list(args.seeds):
            cmd = [sys.executable, *bench["command"][1:], "--workload", args.workload, "--seed", str(seed),
                   "--seconds", str(bench["run_seconds"]), "--trace", str(args.trace)]
            start = time.perf_counter()
            proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=900)
            wall = time.perf_counter() - start
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            op_times = [float(t) for line in lines if line.startswith("op_times_ms ") for t in line.split()[1:]]
            log.write(json.dumps({"seed": seed, "wall_s": wall, "op_times_ms": op_times, **result}) + "\n")
            print(f"seed {seed}: exit {proc.returncode} wall {wall:.1f}s attempted {result['attempted']} "
                  f"failed {result['failed']} "
                  + " ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items() if k in bounds),
                  flush=True)
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
    for name, series in values.items():
        med = statistics.median(series)
        q1, _, q3 = statistics.quantiles(series, n=4) if len(series) > 1 else (med, med, med)
        spread = (q3 - q1) / med if med else float("nan")
        if args.trace == 0 or name == "trace_overhead_frac":
            print(f"{name:24s} median {med:.6g} q1 {q1:.6g} q3 {q3:.6g} spread {spread:.4f} "
                  f"bound {bounds.get(name)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
