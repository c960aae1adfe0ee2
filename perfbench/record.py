"""Record reference.json: the checked outputs of every op, for every seed
in the pool, at full and smoke sizes.

    python3 perfbench/record.py

Run it only on the commit whose outputs are the reference.  An output
seen twice under one key (certify reports are free of the coefficient
function, so every seed shares them), or already in reference.json, must
agree with the first within the benchmark's tolerance; ops without a
reference (the oracle cross-checks) must pass for every seed.  Keys no
op uses any more are dropped.
"""

from __future__ import annotations

import json
import sys

import run
import workloads


def main() -> int:
    try:
        previous = run.load_references()
    except FileNotFoundError:
        previous = {}
    refs = {}
    pkg = run.load_package(fresh=False)
    for smoke in (True, False):
        for name in workloads.WORKLOADS:
            for seed in range(workloads.POOL):
                wl = workloads.WORKLOADS[name](pkg, seed, smoke)
                for op in wl.ops():
                    values, error = op.check(op.call(pkg))
                    key = op.ref_key
                    if error is None and key is not None:
                        for known in (refs, previous):
                            if error is None and key in known:
                                error = workloads.compare(values, known[key], op.exact)
                        refs.setdefault(key, values)
                    if error is not None:
                        print(f"{name} seed {seed}: {op.label}: {error}", file=sys.stderr)
                        return 1
                print(f"{name} smoke={smoke} seed {seed}: ok", flush=True)
    with open(run.REFERENCE, "w") as fh:
        json.dump(refs, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
