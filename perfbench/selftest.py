"""Self-test of the benchmark.

    python3 perfbench/selftest.py

Runs every workload on its reduced inputs (one pass) on the default seed and
on a second seed, untraced and traced, and asserts that no op fails, that
the final JSON carries exactly the metrics BENCHMARK.json declares and that
the report printed each of them.  The traced run on the default seed is made
twice, and every count must repeat exactly.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
SEEDS = (1, 2)


def bench(workload: str, seed: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
           "--small"]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert result["failed"] == 0 and result["correct"], lines
    names = [m["name"] for m in SPEC["per_layer" if trace else "end_to_end"]]
    assert sorted(result["metrics"]) == sorted(names), sorted(result["metrics"])
    report = "\n".join(lines[:-1])
    for name in names + ["fail_ratio"]:
        assert f" {name} " in report, name
    return result["metrics"]


def counts(metrics: dict) -> dict:
    return {k: v["value"] for k, v in metrics.items()
            if v["unit"] in ("count", "B")}


def main() -> int:
    for w in SPEC["workloads"]:
        for seed in SEEDS:
            for trace in (0, 1):
                m = bench(w["name"], seed, trace)
                if trace and seed == SEEDS[0]:
                    again = bench(w["name"], seed, trace)
                    assert counts(m) == counts(again), (counts(m), counts(again))
            print(f"{w['name']} seed {seed}: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
