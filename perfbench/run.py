"""Benchmark of hamalg: time to exact verdicts, end to end and by layer.

    python3 perfbench/run.py --workload laws --seed 1 --seconds 22 --trace 0

Run from anywhere; the package measured is the `src/hamalg` next to this
directory, on the numpy kernel path, with HAMALG_DIM unset.  Each workload
is a closed loop with one client in one fresh single-threaded process
(workload.py).  The last line of standard output is one JSON object:

  --trace 0  end-to-end metrics: ops_per_s, op_p50_ms, op_p90_ms, setup_s
             (median over SETUPS fresh processes), peak_rss_mb;
  --trace 1  per-layer metrics from one untraced and one traced pass over
             the inputs: self time, calls and boundary counts per function,
             the import time, and traced against untraced ops_per_s.

Op times, and with them ops_per_s, op_p50_ms and op_p90_ms, and setup_s
are in reference seconds: each wall time is scaled by the speed of the host
measured by a calibration loop run next to it (calibrate.py), so the host's
drift cancels.  The per-layer self times are wall time.

The lines before it repeat every metric with its unit, the same op figures
in wall time, fail_ratio, and the environment (git sha if the tree is a git checkout, source digest, Python,
numpy, scipy, sympy, numba, kernel path, nproc, source line count).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from calibrate import to_reference

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("laws", "operators", "oracle")
SETUPS = 5
DEADLINE_S = 170.0

# per-layer metrics: (reported name, function, tracer field, unit);
# "rewrite" and "kernels" are the modules hamalg._rewrite and hamalg._kernels
LAYER_METRICS = [
    ("parser.parse_symbol.self_s", "parser.parse_symbol", "self_s", "s"),
    ("parser.format_expression.self_s", "parser.format_expression", "self_s", "s"),
    ("rewrite.canonicalize_terms.self_s", "_rewrite.canonicalize_terms", "self_s", "s"),
    ("rewrite.canonicalize_terms.calls", "_rewrite.canonicalize_terms", "calls", "count"),
    ("rewrite.canonicalize_terms.terms_in", "_rewrite.canonicalize_terms", "terms_in", "count"),
    ("rewrite.canonicalize_terms.terms_out", "_rewrite.canonicalize_terms", "terms_out", "count"),
    ("variational.vderiv.self_s", "variational.vderiv", "self_s", "s"),
    ("poisson.bracket.self_s", "poisson.bracket", "self_s", "s"),
    ("poisson.bracket.calls", "poisson.bracket", "calls", "count"),
    ("quantum.quantize.self_s", "quantum.quantize", "self_s", "s"),
    ("quantum.quantize.words_out", "quantum.quantize", "words_out", "count"),
    ("quantum.ccr_reduce.self_s", "quantum.ccr_reduce", "self_s", "s"),
    ("quantum.ccr_reduce.terms_in", "quantum.ccr_reduce", "terms_in", "count"),
    ("quantum.ccr_reduce.terms_out", "quantum.ccr_reduce", "terms_out", "count"),
    ("quantum.commutator.self_s", "quantum.commutator", "self_s", "s"),
    ("lattice.discretize.self_s", "lattice.discretize", "self_s", "s"),
    ("lattice.numeric_bracket.self_s", "lattice.numeric_bracket", "self_s", "s"),
    ("lattice.kg_flow.self_s", "lattice.kg_flow", "self_s", "s"),
    ("kernels.functional_value.self_s", "_kernels.functional_value", "self_s", "s"),
    ("kernels.functional_value.calls", "_kernels.functional_value", "calls", "count"),
    ("kernels.functional_gradient.self_s", "_kernels.functional_gradient", "self_s", "s"),
    ("kernels.functional_gradient.calls", "_kernels.functional_gradient", "calls", "count"),
    ("kernels.functional_gradient.points", "_kernels.functional_gradient", "points", "count"),
    ("kernels.functional_gradient.peak_bytes", "_kernels.functional_gradient", "peak_bytes", "B"),
    ("quasiclassics.integrate_characteristics.self_s",
     "quasiclassics.integrate_characteristics", "self_s", "s"),
    ("quasiclassics.wkb_residual.self_s", "quasiclassics.wkb_residual", "self_s", "s"),
]


class BenchError(Exception):
    pass


def _child(args, deadline: float, mode: str) -> tuple[dict, float]:
    """Run workload.py in a fresh process; return its record and start time."""
    env = {k: v for k, v in os.environ.items() if k != "HAMALG_DIM"}
    env.update(PYTHONPATH=str(SRC), HAMALG_NO_NUMBA="1", OMP_NUM_THREADS="1",
               OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    cmd = [sys.executable, str(HERE / "workload.py"), "--workload",
           args.workload, "--seed", str(args.seed), "--seconds",
           str(args.seconds), "--mode", mode] + (["--small"] if args.small else [])
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("out of time before the workload process started")
    start = time.monotonic()
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True,
                              text=True, timeout=remaining)
    except subprocess.TimeoutExpired:
        raise BenchError(f"workload process ({mode}) timed out")
    if proc.returncode != 0:
        raise BenchError(f"workload process ({mode}) exited with "
                         f"{proc.returncode}:\n{proc.stderr[-2000:]}")
    record = json.loads(proc.stdout.strip().splitlines()[-1])
    if "hamalg" in record and not Path(record["hamalg"]).is_relative_to(SRC):
        raise BenchError(f"imported {record['hamalg']}, not the in-tree package")
    return record, start


def _source_info() -> dict:
    h = hashlib.sha256()
    for p in sorted((SRC / "hamalg").glob("*.py")):
        h.update(p.name.encode() + b"\0" + p.read_bytes())
    sha = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
        sha = proc.stdout.strip() or None
    return {"git_sha": sha, "src_sha256": h.hexdigest()}


def _end_to_end(args, deadline) -> tuple[dict, dict]:
    setups, setups_wall = [], []
    for _ in range(SETUPS):
        rec, start = _child(args, deadline, "setup")
        setups_wall.append(rec["ready"] - start)
        setups.append(to_reference(setups_wall[-1], rec["calibration"]))
    rec, _ = _child(args, deadline, "measure")
    lat = rec["latencies"]
    deciles = statistics.quantiles(lat, n=10)
    metrics = {
        "ops_per_s": (len(lat) / sum(lat), "1/s"),
        "op_p50_ms": (1e3 * statistics.median(lat), "ms"),
        "op_p90_ms": (1e3 * deciles[8], "ms"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (rec["peak_rss_mb"], "MB"),
    }
    wall = rec["wall_latencies"]
    rec["notes"] = [
        f"wall time, not normalized: ops_per_s {len(wall) / sum(wall):.6g} 1/s,"
        f" op_p50_ms {1e3 * statistics.median(wall):.6g} ms,"
        f" op_p90_ms {1e3 * statistics.quantiles(wall, n=10)[8]:.6g} ms;"
        f" calibration loop median"
        f" {1e3 * statistics.median(rec['calibrations']):.6g} ms",
        f"setup_s of each process, wall time:"
        f" {' '.join(f'{t:.4g}' for t in setups_wall)}",
    ]
    return metrics, rec


def _per_layer(args, deadline) -> tuple[dict, dict]:
    rec, _ = _child(args, deadline, "trace")
    layers = rec["layers"]
    metrics = {}
    for name, key, field, unit in LAYER_METRICS:
        value = layers.get(key, {}).get(field, 0.0)
        metrics[name] = (int(value) if unit in ("count", "B") else value, unit)
    n = rec["ops_per_pass"]
    untraced = n / rec["untraced_s"]
    traced = n / rec["traced_s"]
    metrics["import.hamalg_s"] = (rec["import_s"], "s")
    metrics["trace.untraced_ops_per_s"] = (untraced, "1/s")
    metrics["trace.traced_ops_per_s"] = (traced, "1/s")
    metrics["trace.overhead"] = (untraced / traced, "ratio")
    return metrics, rec


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=22)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--small", action="store_true",
                    help="reduced inputs, one pass (self-test)")
    args = ap.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S
    # on SIGTERM, unwind so that subprocess.run kills and reaps its child
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not (SRC / "hamalg" / "__init__.py").is_file():
        print(f"error: no hamalg sources under {SRC}", file=sys.stderr)
        return 2
    try:
        measure = _per_layer if args.trace else _end_to_end
        metrics, rec = measure(args, deadline)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    meta = {**_source_info(), **rec["meta"]}
    attempted, failed = rec["attempted"], rec["failed"]
    print(f"hamalg benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}"
          f"{' small' if args.small else ''}")
    print("environment: " + json.dumps(meta, sort_keys=True))
    for name, (value, unit) in metrics.items():
        print(f"  {name:<48} {value:>16.6g} {unit}")
    for line in rec.get("notes", []):
        print(f"  {line}")
    print(f"  {'fail_ratio':<48} {failed / attempted:>16.6g} "
          f"({failed}/{attempted} ops)")
    for line in rec["failures"]:
        print(f"  failed: {line}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
