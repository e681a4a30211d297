"""Measuring side of the benchmark: the request loop, checks and metrics.

run.py is the entry point; it puts the checkout's dshp on sys.path before
importing this module.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import math
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections import defaultdict
from fractions import Fraction

import checkout
import tracing
import workloads
from dshp import Instance, cli, parse_instance

SETUP_REPS = 9
MIN_PASSES = 2
TAIL_BEYOND = 3
WORK_DIR = checkout.ROOT / ".bench_work"

# Per-layer times taken from spans: metric -> (total or self time, span names).
SPAN_METRICS = {
    "cli.self_ms": ("self", ("cli.main",)),
    "model.parse_ms": ("total", ("model.parse_instance",)),
    "model.complete_ms": ("total", ("model.complete_first_stage",)),
    "model.validate_ms": ("total", ("model.require_valid",)),
    "model.serialize_ms": ("total", ("model.serialize_solution", "model.format_rational")),
    "exact.solve_ms": ("total", ("exact.solve_exact",)),
    "exact.self_ms": ("self", ("exact.solve_exact",)),
    "two_value.detect_ms": ("total", ("two_value.detect_two_values",)),
    "two_value.solve_ms": ("total", ("two_value.solve_two_value",)),
    "approx.solve_ms": ("total", ("approx.solve_approx",)),
    "approx.self_ms": ("self", ("approx.solve_approx",)),
}


def tail(values: list[float], beyond: int = 10) -> tuple[int, float]:
    """The highest whole percentile with at least `beyond` samples beyond it.

    Percentiles use the nearest-rank rule.  With `beyond` samples or fewer
    no percentile qualifies, and the maximum is returned as percentile 100.
    """
    ordered = sorted(values)
    for percentile in range(99, -1, -1):
        rank = max(1, math.ceil(percentile * len(ordered) / 100))
        if len(ordered) - rank >= beyond:
            return percentile, ordered[rank - 1]
    return 100, ordered[-1]


def output_digest(stdout: str, solution_text: str) -> str:
    """Digest of a request's output with the report's wall_time_ms left out."""
    try:
        report = json.loads(stdout)
    except ValueError:
        report = None
    if isinstance(report, dict):
        report.pop("wall_time_ms", None)
        stdout = json.dumps(report, sort_keys=True)
    return hashlib.sha256(f"{stdout}\0{solution_text}".encode()).hexdigest()


def set_up(workload: str, seed: int, out_dir) -> dict:
    """Run the generator once in its own process; return its manifest."""
    proc = subprocess.run(
        [sys.executable, str(checkout.BENCH_DIR / "gen.py"),
         "--workload", workload, "--seed", str(seed), "--out", str(out_dir)],
        capture_output=True, text=True, timeout=150,
    )
    if proc.returncode != 0:
        sys.exit(f"bench: set-up failed with exit code {proc.returncode}\n{proc.stderr}")
    return json.loads((out_dir / "manifest.json").read_text(encoding="utf-8"))


class Client:
    """Sends requests and keeps one copy of every distinct output."""

    def __init__(self, cli_main, inputs, in_dir, solution_path):
        self.cli_main = cli_main
        self.solution_path = solution_path
        self.argvs = [
            ["solve", "--algo", item["algo"], "--instance", str(in_dir / item["instance"]),
             "--solution-out", str(solution_path)]
            for item in inputs
        ]
        self.sent = 0
        # (input index, exit code, output digest) -> [requests, stdout, solution text]
        self.outputs: dict[tuple, list] = {}

    def send(self, index: int, tracer=None) -> int:
        """One request on input index; returns its wall time in ns."""
        self.solution_path.unlink(missing_ok=True)
        argv = self.argvs[index]
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            started = time.perf_counter_ns()
            try:
                if tracer is None:
                    rc = self.cli_main(argv)
                else:
                    rc = tracer.request(self.sent, "cli.main", self.cli_main, argv)
            except Exception:  # a crash is a failed request, not a failed benchmark
                rc = -1
                traceback.print_exc()
            elapsed = time.perf_counter_ns() - started
        self.sent += 1
        try:
            solution_text = self.solution_path.read_text(encoding="utf-8")
        except OSError:
            solution_text = ""
        out = stdout.getvalue() if rc == 0 else stderr.getvalue()
        key = (index, rc, output_digest(out, solution_text))
        if key in self.outputs:
            self.outputs[key][0] += 1
        else:
            self.outputs[key] = [1, out, solution_text]
        return elapsed


def measure(client, n_inputs: int, seconds: float, trace: bool, tracer, after_traced, set_up_once):
    """Whole passes until `seconds` of them elapse; traced passes alternate when trace is on.

    Between passes, set_up_once runs at evenly spaced points of the phase,
    SETUP_REPS - 1 times in all, so that set-up is timed at the same moments
    of the host's load as the requests; its time is not part of the phase.
    Returns per-input wall times in ns as {traced: {index: [...]}}, the input
    index of each traced request id, and the time the passes took in seconds.
    """
    latencies = {flag: defaultdict(list) for flag in (False, True)}
    traced_inputs: dict[int, int] = {}
    passes = set_ups = 0
    busy = 0.0
    while True:
        traced = trace and passes % 2 == 1
        started = time.perf_counter()
        if traced:
            tracer.install()
        for index in range(n_inputs):
            if traced:
                traced_inputs[client.sent] = index
            latencies[traced][index].append(client.send(index, tracer if traced else None))
            if traced:
                after_traced(index)
        if traced:
            tracer.uninstall()
        passes += 1
        busy += time.perf_counter() - started
        while set_ups < SETUP_REPS - 1 and busy >= seconds * (set_ups + 1) / SETUP_REPS:
            set_up_once()
            set_ups += 1
        if passes >= MIN_PASSES and busy >= seconds and (not trace or passes % 2 == 0):
            break
    for _ in range(set_ups, SETUP_REPS - 1):
        set_up_once()
    return latencies, traced_inputs, busy


def run(args) -> None:
    """Set up, measure and check one workload; print the metrics and the result line."""
    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"bench: unknown workload {args.workload!r}; "
                 f"choose from {sorted(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload]
    run_dir = WORK_DIR / f"{workload.name}-seed{args.seed}"
    shutil.rmtree(run_dir, ignore_errors=True)
    in_dir = run_dir / "inputs"

    manifests = [set_up(workload.name, args.seed, in_dir)]
    inputs = manifests[0]["inputs"]

    client = Client(cli.main, inputs, in_dir, run_dir / "solution.json")
    tracer = tracing.Tracer()
    probes: dict[str, list[int]] = defaultdict(list)
    texts, parsed = [], []
    if args.trace:
        texts = [(in_dir / item["instance"]).read_text(encoding="utf-8") for item in inputs]
        parsed = [parse_instance(text) for text in texts]

    def probe(index: int) -> None:
        """Coercion and JSON decoding alone, on the input a traced request used."""
        instance = parsed[index]
        fields = {name: getattr(instance, name) for name in ("n", "m", "k", "c", "p", "f", "label")}
        started = time.perf_counter_ns()
        Instance(**fields)
        probes["coerce"].append(time.perf_counter_ns() - started)
        started = time.perf_counter_ns()
        json.loads(texts[index], parse_float=Fraction)
        probes["json_decode"].append(time.perf_counter_ns() - started)

    def set_up_again() -> None:
        """A further set-up, into its own directory; it must write the same inputs."""
        manifests.append(set_up(workload.name, args.seed, run_dir / "setup-again"))

    for index in range(len(inputs)):  # warm-up pass, untimed
        client.send(index)
    latencies, traced_inputs, busy = measure(
        client, len(inputs), args.seconds, bool(args.trace), tracer, probe, set_up_again
    )
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6

    problems = []
    if any(m["inputs"] != inputs for m in manifests):
        problems.append("set-up wrote different inputs for the same seed")
    failed = 0
    facts: dict[int, dict] = {}
    for (index, rc, _), (count, out, solution_text) in client.outputs.items():
        found, input_facts = workloads.check_output(inputs[index], in_dir, rc, out, solution_text)
        facts.setdefault(index, input_facts)
        if found:
            failed += count
            problems.append(f"input {inputs[index]['instance']}: " + "; ".join(found))

    attempted = client.sent
    if args.trace:
        metrics = layer_metrics(
            inputs, manifests, parsed, facts, tracer, traced_inputs,
            latencies, probes, problems,
        )
        with open(run_dir / "spans.jsonl", "w", encoding="utf-8") as handle:
            for span in tracer.spans:
                handle.write(json.dumps(dataclasses.asdict(span)) + "\n")
    else:
        untraced = [ns for times in latencies[False].values() for ns in times]
        tails = [tail(times, TAIL_BEYOND) for times in latencies[False].values()]
        samples = [len(times) for times in latencies[False].values()]
        print(
            f"request_ms_tail is the mean over {len(tails)} inputs of each input's "
            f"p{min(p for p, _ in tails)}..p{max(p for p, _ in tails)} "
            f"of {min(samples)}..{max(samples)} timed requests"
        )
        # Reported for reading, not in the result: on a shared host both
        # follow the host's load more than the program (see NOTES.md).
        print(f"{workload.name} request_ms_p50 = {statistics.median(untraced) / 1e6} ms")
        print(f"{workload.name} requests_per_s = {len(untraced) / busy} 1/s")
        metrics = {
            "setup_s": (statistics.median(m["setup_s"] for m in manifests), "s"),
            "request_ms_tail": (statistics.fmean(ns for _, ns in tails) / 1e6, "ms"),
            "ok_ratio": ((attempted - failed) / attempted, "ratio"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
    for problem in problems[:20]:
        print(f"bench: {problem}", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"{workload.name} {name} = {value} {unit}")
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()
        },
    }))


def layer_metrics(inputs, manifests, parsed, facts, tracer,
                  traced_inputs, latencies, probes, problems) -> dict:
    """Per-layer metrics of a traced run.

    Times are medians over traced requests (or probes) in ms.  Counts are
    exact and summed over one pass, every input once.  Rates divide the
    work of the traced requests by the time their spans took.
    """
    exact = [i for i, item in enumerate(inputs) if item["algo"] == "exact"]
    two_value = [i for i, item in enumerate(inputs) if item["algo"] == "two-value"]
    by_request: dict[int, list] = defaultdict(list)
    for span in tracer.spans:
        by_request[span.request].append(span)
    profiles = []
    for request_id, spans in sorted(by_request.items()):
        total, self_ns, faults = tracing.request_profile(spans)
        problems.extend(f"request {request_id}: {fault}" for fault in faults)
        profiles.append((traced_inputs[request_id], {"total": total, "self": self_ns}, len(spans)))

    def median_ms(values) -> float:
        return statistics.median(values) / 1e6 if values else 0.0

    metrics = {}
    for name, (kind, span_names) in SPAN_METRICS.items():
        per_request = [sum(p[kind][s] for s in span_names) for _, p, _ in profiles]
        metrics[name] = (median_ms(per_request), "ms")

    def rate(work_of_input, span_name) -> float:
        work = sum(work_of_input(index) for index, _, _ in profiles)
        busy_ns = sum(p["total"][span_name] for _, p, _ in profiles)
        return work / (busy_ns / 1e9) if busy_ns else 0.0

    cells = sum(workloads.cells(item) for item in inputs)
    visits = sum(workloads.two_value_visits(parsed[i]) for i in two_value)
    request_ms = {
        traced: [ns for times in latencies[traced].values() for ns in times]
        for traced in (False, True)
    }
    metrics.update({
        "model.coerce_ms": (median_ms(probes["coerce"]), "ms"),
        "model.json_decode_ms": (median_ms(probes["json_decode"]), "ms"),
        "model.cells": (cells, "count"),
        "model.parse_cells_per_s": (
            rate(lambda i: workloads.cells(inputs[i]), "model.parse_instance"), "1/s"),
        "exact.candidate_sets": (
            sum(workloads.candidate_sets(inputs[i]) for i in exact), "count"),
        "exact.sets_per_s": (
            rate(lambda i: workloads.candidate_sets(inputs[i]) if i in exact else 0,
                 "exact.solve_exact"), "1/s"),
        "exact.pruned_assets": (sum(workloads.pruned_assets(parsed[i]) for i in exact), "count"),
        "two_value.visits": (visits, "count"),
        "two_value.visits_per_cell": (
            visits / sum(workloads.cells(inputs[i]) for i in two_value) if two_value else 0.0,
            "ratio"),
        "reduction.gen_graph_ms": (
            statistics.median(m["gen_graph_s"] for m in manifests) * 1e3, "ms"),
        "reduction.build_ms": (statistics.median(m["build_s"] for m in manifests) * 1e3, "ms"),
        "reduction.mds_ms": (sum(f.get("mds_s", 0.0) for f in facts.values()) * 1e3, "ms"),
        "reduction.mds_size": (sum(f.get("mds_size", 0) for f in facts.values()), "count"),
        "trace.overhead_ratio": (
            statistics.median(request_ms[True]) / statistics.median(request_ms[False]), "ratio"),
        "trace.spans_per_request": (statistics.median(n for _, _, n in profiles), "count"),
    })
    print(
        f"tracing overhead: traced request_ms_p50 {median_ms(request_ms[True])} ms "
        f"against untraced {median_ms(request_ms[False])} ms"
    )
    return metrics
