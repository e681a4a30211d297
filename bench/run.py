"""Seeded closed-loop benchmark of `dshp solve` requests.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Without --workload (or with --workload all) it runs every workload, each in
its own process, and ends with one JSON line holding all their results.

Run from the root of a dshp checkout.  Set-up runs bench/gen.py in its
own process: once before measuring, and SETUP_REPS - 1 more times spread
over the timed phase, each writing the same seeded inputs and reporting
its time; setup_s is the median.  This process then measures: one client
sends requests one after another (a closed loop), each an in-process call
to dshp.cli.main(["solve", ...]) on one generated file, cycling through
the inputs.  One untimed warm-up pass comes first; the timed phase runs
whole passes until S seconds of them have gone by, so every input is
measured equally often.

Every request's output is checked (see workloads.check_output).  The
program is deterministic, so requests whose output matches byte for byte,
wall_time_ms aside, share one check.

--trace 0 prints the end-to-end metrics.  --trace 1 alternates untraced
and traced passes, where dshp functions called across module boundaries
record spans (see tracing.py), and prints the per-layer metrics, the
tracing overhead among them.  The last stdout line is the JSON result.
"""

import argparse
import json
import subprocess
import sys

import checkout


def run_all(args) -> None:
    """Each workload in its own process, one after another."""
    spec = json.loads((checkout.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    results = {}
    for name in (w["name"] for w in spec["workloads"]):
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True,
        )
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode != 0 or not lines:
            sys.exit(f"bench: workload {name} exited with code {proc.returncode}")
        results[name] = json.loads(lines[-1])
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "workloads": results,
    }))


def main() -> None:
    parser = argparse.ArgumentParser(description="Seeded closed-loop benchmark of dshp solve")
    parser.add_argument("--workload", default="all", help="a workload name, or all (default)")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.workload == "all":
        run_all(args)
        return
    checkout.use_checkout_dshp()
    import harness  # imports dshp from the checkout

    harness.run(args)


if __name__ == "__main__":
    main()
