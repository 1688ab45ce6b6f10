#!/usr/bin/env python3
"""Record the expected outcome of every op any seed can pick.

    python3 perfbench/record.py

Runs each candidate of each slot once, with cold caches, and writes
perfbench/expected.json afresh: the sha256 of each report (or of the gate
rows), and the exact sweep total or identity value.  An op that fails
its own checks is reported and not recorded, so the run stops with
exit code 1.  It also prints each slot's cost spread, since the slots
are meant to group candidates of about the same cost.

Record only on a commit whose reports are known good; the benchmark
then holds every later commit to byte-identical reports.
"""

from __future__ import annotations

import gc
import json
import sys
import tempfile
from pathlib import Path

import run


def main() -> int:
    run._load_program()
    import inputs
    import ops

    expected = {}
    caches = ops.discover_caches()
    bad = 0
    run.OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.OUT_DIR) as tmp:
        out_path = Path(tmp) / "report.out"
        for workload in inputs.WORKLOADS:
            for k, slot in enumerate(inputs.pool(workload)):
                costs = []
                for op in slot:
                    ops.reset_caches(caches)
                    gc.collect()
                    out = ops.run(op, out_path)
                    if out.problem:
                        print(f"FAIL {op.key}: {out.problem}", file=sys.stderr)
                        bad += 1
                        continue
                    rec = {}
                    if out.digest is not None:
                        rec["sha256"] = out.digest
                    if out.value is not None:
                        rec["value"] = out.value
                    expected[op.key] = rec
                    costs.append(out.seconds)
                if costs:
                    lo, hi = min(costs), max(costs)
                    print(f"{workload} slot {k}: {len(costs)} ops, "
                          f"{lo * 1e3:.1f}..{hi * 1e3:.1f} ms", flush=True)
    (run.HERE / "expected.json").write_text(json.dumps(expected, indent=0, sort_keys=True) + "\n")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
