"""Measurements that need a fresh Python process.

Run by ``run.py`` as ``python3 perfbench/child.py MODE --workload W --seed N``
from the checkout root, with ``src`` on ``PYTHONPATH``. Prints one JSON
object. Modes:

* ``setup``: seconds to import the package, build the workload's pairs
  and write its StateFiles, then the seconds of the first ``screen`` of
  each (dims, rank) shape up to rank COLD_MAX_RANK, which pays every
  per-process cache (the cold pass), in the order of the mix.
* ``import``: milliseconds to import ``lu_invar.cli``.
* ``fingerprint``: milliseconds of the first ``fingerprint`` of the
  workload's largest state.
* ``probe``: one fingerprint of a full-rank 16x16 state; the parent
  kills it at a fixed deadline.
"""

import argparse
import json
import sys
import time
from pathlib import Path


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("mode", choices=("setup", "import", "fingerprint", "probe"))
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workdir", type=Path)
    args = parser.parse_args()

    if args.mode == "import":
        t = time.perf_counter()
        import lu_invar.cli  # noqa: F401

        print(json.dumps({"import_ms": (time.perf_counter() - t) * 1e3}))
        return

    t0 = time.perf_counter()
    import workloads
    from lu_invar import fingerprint, screen

    if args.mode == "setup":
        pairs = workloads.screen_pairs(args.workload, args.seed)
        workloads.cli_ops(args.workload, pairs, args.workdir)
        t1 = time.perf_counter()
        cold = {}
        for pair in pairs:
            if pair.shape not in cold and pair.shape[1] <= workloads.COLD_MAX_RANK:
                t = time.perf_counter()
                screen(pair.a, pair.b)
                cold[pair.shape] = time.perf_counter() - t
        print(json.dumps({"setup_s": t1 - t0, "cold_s": list(cold.values())}))
    elif args.mode == "fingerprint":
        rho = workloads.largest_state(workloads.screen_pairs(args.workload, args.seed))
        t = time.perf_counter()
        fingerprint(rho)
        print(json.dumps({"cold_ms": (time.perf_counter() - t) * 1e3}))
    else:
        fp = fingerprint(workloads.probe_state(args.seed))
        print(json.dumps({"rank": fp.rank}))


if __name__ == "__main__":
    sys.exit(main())
