"""Record ``golden.json`` from the library in this checkout.

    python3 perfbench/record_golden.py

Run it only at a commit whose outputs are trusted: the table is what every
later run is checked against.  It covers every op of every workload and of
the growth pairs; duality ops record subgroup counts, which do not depend
on ``--seed``.
"""

import json
import os
import shutil

from run import OUT, WORKLOADS, import_library

import_library()
import workloads  # noqa: E402  (needs the library on the path)


def main():
    ctx = workloads.Context(OUT / f"golden-{os.getpid()}")
    ops = [op for w in WORKLOADS for op in workloads.build_pass(w, ctx, 0)]
    ops += workloads.growth_ops(ctx, 0).values()
    golden = {}
    try:
        for op in ops:
            golden[op.key] = op.record(op.call())
    finally:
        shutil.rmtree(ctx.workdir, ignore_errors=True)
    workloads.GOLDEN_PATH.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(golden)} ops in {workloads.GOLDEN_PATH}")


if __name__ == "__main__":
    main()
