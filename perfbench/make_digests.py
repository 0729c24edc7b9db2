"""Write digests.json: per-op result digests of the symbolic workloads.

    python3 perfbench/make_digests.py [--seeds 64]

For each seed in 0..seeds-1, runs one pass of `laws` and `operators` and
records the sha256 prefix of the canonical JSON of every op's results.  A
measured run on a listed seed counts an op whose digest differs as failed,
which holds canonical forms byte-identical across changes.  Regenerate
only when a change to the canonical forms is intended.
"""

from __future__ import annotations

import argparse
import json
import time

from run import HERE, _child

DIGESTED = ("laws", "operators")  # as in workload.py


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=int, default=64)
    args = ap.parse_args()
    table = {w: {} for w in DIGESTED}
    for w in DIGESTED:
        for seed in range(args.seeds):
            ns = argparse.Namespace(workload=w, seed=seed, seconds=0,
                                    small=False)
            rec, _ = _child(ns, time.monotonic() + 600, "digest")
            if rec["failed"]:
                raise SystemExit(f"{w} seed {seed}: {rec['failures']}")
            table[w][str(seed)] = rec["digests"]
            print(w, seed, flush=True)
    (HERE / "digests.json").write_text(json.dumps(table, indent=0) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
