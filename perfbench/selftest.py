"""Self-test of the benchmark in quick mode (tiny job lists, one-second runs).

Run from the root of a checkout:

    python3 perfbench/selftest.py

For every workload, untraced and traced, it asserts that the run is correct
with no failed job (the traced replay reproduces every untraced digest and,
for the default seed, every golden), and that each metric BENCHMARK.json
names is printed with its unit, both on its own line and in the final JSON.
It also checks the refusals: SYMBA_CAP set, and a directory holding only
BENCHMARK.json and the benchmark's files.
"""

import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]


def bench(*args, cwd=ROOT, env=None):
    cmd = [sys.executable, "perfbench/run.py", *args]
    return subprocess.run(cmd, cwd=cwd, env=env, capture_output=True, text=True, timeout=600)


def check_run(workload: str, trace: int, spec: dict) -> None:
    out = bench("--workload", workload, "--seed", "0", "--seconds", "1", "--trace", str(trace), "--quick")
    assert out.returncode == 0, out.stderr
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, out.stderr
    wanted = spec["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in wanted]
    for m in wanted:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"], (m["name"], got)
        assert isinstance(got["value"], (int, float)), (m["name"], got)
        pattern = rf"^{re.escape(m['name'])} \S+ {re.escape(m['unit'])} \("
        assert any(re.match(pattern, line) for line in lines), f"{m['name']} not printed"
    if not trace:
        assert any(re.match(r"^ops_failed_frac 0 ratio \(0 of \d+ job runs\)", line) for line in lines)
    print(f"ok {workload} trace={trace}: {result['attempted']} job runs")


def check_refusals() -> None:
    env = dict(os.environ, SYMBA_CAP="1000")
    out = bench("--workload", WORKLOADS[0], "--seconds", "1", env=env)
    assert out.returncode != 0 and not out.stdout.strip(), "ran with SYMBA_CAP set"

    bare = ROOT / ".perfbench-selftest"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        bare.mkdir()
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
        out = bench("--workload", WORKLOADS[0], "--seed", "0", "--seconds", "1", "--trace", "0", cwd=bare)
        assert out.returncode != 0 and not out.stdout.strip(), "ran without the symba sources"
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    print("ok refusals")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in WORKLOADS:
        for trace in (0, 1):
            check_run(workload, trace, spec)
    check_refusals()
    return 0


if __name__ == "__main__":
    sys.exit(main())
