"""The benchmark's own smoke test, at tiny sizes.

    python3 perfbench/smoke.py

It runs every workload with tracing off and on at ``--scale tiny`` (the
tests' model size, a few hundred flows), plus ``--workload all``, and
checks that every metric BENCHMARK.json names is present with its unit.
It feeds each workload's correctness check one deliberately corrupted
output, to show the check can fail, and runs the benchmark in a directory
holding only BENCHMARK.json and perfbench/, where it must fail without a
result. Exits 0 when everything holds.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SCRATCH = ROOT / ".perfbench-work" / "smoke"
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
NAMED = {
    "ingest": {"ingest_pkt_per_s": "pkt/s"},
    "finetune": {"train_tokens_per_s": "tok/s", "train_loss_last": "nats"},
    "classify": {"classify_flows_per_s": "flows/s", "classify_batch_p50_ms": "ms"},
    "pretrain": {"train_tokens_per_s": "tok/s", "train_loss_last": "nats"},
}
COMMON = {"setup_s": "s", "peak_rss_mb": "MB"}

failures: list[str] = []


def expect(condition: bool, message: str) -> None:
    if not condition:
        failures.append(message)
        print(f"FAIL {message}", flush=True)


def run(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
           "--seconds", "1", "--trace", str(trace), "--scale", "tiny"]
    return subprocess.run(cmd, cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=600)


def check_result(label: str, proc, expected: dict[str, str], positive: bool) -> list[str]:
    """Checks the last stdout line against the result contract; returns stdout lines."""
    lines = proc.stdout.strip().splitlines()
    expect(proc.returncode == 0, f"{label}: exit {proc.returncode}: {proc.stderr[-2000:]}")
    if proc.returncode != 0 or not lines:
        return lines
    result = json.loads(lines[-1])
    expect(sorted(result) == ["attempted", "correct", "failed", "metrics"], f"{label}: keys {sorted(result)}")
    expect(result["correct"] is True and result["failed"] == 0, f"{label}: {result['failed']} failed")
    expect(isinstance(result["attempted"], int) and result["attempted"] >= 1, f"{label}: attempted")
    metrics = result["metrics"]
    expect(sorted(metrics) == sorted(expected), f"{label}: metrics {sorted(set(metrics) ^ set(expected))}")
    for name, unit in expected.items():
        metric = metrics.get(name, {})
        expect(metric.get("unit") == unit, f"{label}: {name} unit {metric.get('unit')} != {unit}")
        value = metric.get("value")
        ok = isinstance(value, (int, float)) and math.isfinite(value) and (value > 0 or not positive)
        expect(ok, f"{label}: {name} = {value!r}")
    return lines


def check_runs() -> None:
    end_to_end = {m["name"]: m["unit"] for m in BENCH["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in BENCH["per_layer"]}
    for workload, named in NAMED.items():
        lines = check_result(f"{workload} trace 0", run(workload, 0), end_to_end, positive=True)
        printed = {line.split()[1]: line.split()[-1] for line in lines if line.startswith("metric ")}
        for name, unit in {**COMMON, **named}.items():
            expect(printed.get(name) == unit, f"{workload}: printed {name} unit {printed.get(name)} != {unit}")
        record = next((json.loads(line[7:]) for line in lines if line.startswith("record ")), {})
        for key in ("seed", "params", "git_commit", "python", "numpy", "blas", "blas_threads", "nproc",
                    "corpus_sha256"):
            expect(key in record, f"{workload}: run record lacks {key}")
        check_result(f"{workload} trace 1", run(workload, 1), per_layer, positive=False)
    proc = run("all", 0)
    expected = {f"{w}.{name}": unit for w in NAMED for name, unit in end_to_end.items()}
    check_result("all trace 0", proc, expected, positive=True)


def check_corruptions() -> None:
    """Each correctness check passes on a real output and fails on a corrupted one."""
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import numpy as np
    import workloads

    for name, cls in workloads.WORKLOADS.items():
        wl = cls(workloads.PARAMS["tiny"][name], 5, SCRATCH / name)
        wl.build()
        wl.prepare(0)
        out = wl.run(0)
        expect(wl.check(0, out) == [], f"{name}: check fails on a real output: {wl.check(0, out)}")
        if name == "ingest":
            lines = wl.corpus.read_text().splitlines(keepends=True)
            wl.corpus.write_text("".join(lines[:-1]))  # one sequence lost
        elif name == "classify":
            out = out.copy()
            out[0] = (out[0] + 1) % workloads.N_CLASSES  # sequence 0 is the one checked for op 0
        else:
            next(iter(wl.model.params.values())).data[0, 0] = np.nan
        expect(wl.check(0, out) != [], f"{name}: check accepts a corrupted output")


def check_bare_directory() -> None:
    """With only BENCHMARK.json and perfbench/, the benchmark fails and prints no result."""
    bare = SCRATCH / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run("ingest", 0, cwd=bare)
    expect(proc.returncode != 0, "bare directory: exit 0")
    expect(not proc.stdout.strip(), f"bare directory: printed {proc.stdout[-200:]!r}")


def main() -> int:
    shutil.rmtree(SCRATCH, ignore_errors=True)
    try:
        check_runs()
        check_corruptions()
        check_bare_directory()
    finally:
        shutil.rmtree(SCRATCH, ignore_errors=True)
    print(f"smoke: {len(failures)} failures")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
