"""Set-up step of the benchmark, run in its own process by run.py.

    python3 bench/gen.py --workload NAME --seed N --out DIR

Imports dshp, writes the workload's seeded input files to DIR and a
manifest.json beside them.  setup_s in the manifest covers the import,
the generation and the writing.
"""

import argparse
import json
import time
from pathlib import Path

import checkout


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()

    started = time.perf_counter()
    checkout.use_checkout_dshp()
    import workloads  # imports dshp, which set-up time includes

    manifest = workloads.generate(workloads.WORKLOADS[args.workload], args.seed, args.out)
    manifest["setup_s"] = time.perf_counter() - started
    (args.out / "manifest.json").write_text(json.dumps(manifest, indent=1), encoding="utf-8")


if __name__ == "__main__":
    main()
