"""neurocode benchmark: one seeded workload per run, in one process.

    python3 perfbench/run.py --workload cf-large --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``. With ``--trace 0`` it times whole passes over the workload's
inputs until ``--seconds`` of call time have accumulated and prints the
end-to-end metrics, with throughput in reference seconds (see hostclock.py). With ``--trace 1`` it times one untraced pass, then one
pass with every layer's public functions wrapped in spans, and prints the
per-layer metrics; the spans go to ``.perfbench_out/``. Either way every
output is checked, and the last line of stdout is one JSON object with the
keys correct, attempted, failed and metrics. See README.md in this
directory for the metrics, the workloads and the measured spread.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import resource
import statistics
import sys
import time
from pathlib import Path
from types import SimpleNamespace

from hostclock import HostClock
from spans import TRACED, Tracer
from workloads import WORKLOADS

LAYERS = ("codes", "ideal", "graphs", "realization", "verify", "cli")
SETUP_REPEATS = 9

END_TO_END = (("setup_s", "s"), ("ops_per_ref_s", "1/ref_s"), ("peak_rss_mb", "MB"))


def _calls_self(*names: str) -> list[tuple[str, str]]:
    return [(f"{n}.{k}", unit) for n in names for k, unit in (("calls", "count"), ("self_s", "s"))]


PER_LAYER = (
    _calls_self("ideal.canonical_form")
    + [("ideal.canonical_form.max_s", "s"), ("ideal.canonical_form.elements_out", "count")]
    + _calls_self("ideal.canonical_form_oracle", "ideal.predict_cf", "graphs.ccg")
    + [("graphs.ccg.edges_out", "count")]
    + _calls_self("graphs.is_connected", "graphs.is_regular", "graphs.diameter",
                  "graphs.grg", "graphs.gr_complex",
                  "codes.Code.from_masks", "codes.union_closure_condition",
                  "codes.parse_code", "codes.apply_elementary_map",
                  "realization.code_of_intervals", "realization.code_of_segments",
                  "realization.cf_from_intervals")
    + [(f"verify.{s}.self_s", "s") for s in TRACED["verify"]]
    + [("verify.sweep.codes_scanned", "count"), ("verify.sweep.graph_built_ratio", "ratio")]
    + _calls_self("cli.main")
    + [("cli.main.failed", "count"), ("cli.main.p50_ms", "ms"), ("cli.main.p99_ms", "ms"),
       ("cli.stdout_bytes", "bytes"),
       ("trace.overhead_ratio", "ratio"), ("trace.wall_s", "s")]
)


def load_package(src: Path) -> SimpleNamespace:
    """Import neurocode afresh from `src`, dropping any earlier import."""
    for name in [m for m in sys.modules if m == "neurocode" or m.startswith("neurocode.")]:
        del sys.modules[name]
    importlib.import_module("neurocode")
    nc = SimpleNamespace(**{layer: importlib.import_module(f"neurocode.{layer}")
                            for layer in LAYERS})
    if not Path(nc.codes.__file__).resolve().is_relative_to(src.resolve()):
        raise ImportError(f"neurocode was imported from {nc.codes.__file__}, not {src}")
    return nc


def set_up(args, src: Path):
    """Median over SETUP_REPEATS of importing the package and generating
    the workload's inputs; the last set-up is the one that runs. The first
    repeat also pays for importing the standard library and compiling
    bytecode; the median leaves it out."""
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        nc = load_package(src)
        workload = WORKLOADS[args.workload](nc, args.seed, args.size, args.corrupt)
        times.append(time.perf_counter() - start)
    return statistics.median(times), workload


def run_pass(workload, latencies: list | None = None, tracer: Tracer | None = None,
             host: HostClock | None = None):
    """One pass over the inputs; returns (seconds inside calls, failed ops).
    Only the calls are timed, less any host-speed samples taken during them;
    checking their outputs is not timed."""
    busy = 0.0
    failed = 0
    for i in range(len(workload.calls)):
        if tracer is not None:
            tracer.op = i
        sampled = host.spent if host else 0.0
        start = time.perf_counter()
        error = None
        try:
            out = workload.run(i)
        except Exception as exc:  # a crashing op is a failed op; keep measuring
            error = exc
        took = time.perf_counter() - start - (host.spent - sampled if host else 0.0)
        busy += took
        if error is not None:
            print(f"op {i} raised {type(error).__name__}: {error}", file=sys.stderr)
            failed += workload.ops[i]
            continue
        if latencies is not None:
            latencies.append(took)
        failed += workload.check(i, out)
    workload.end_pass()
    return busy, failed


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile; 0.0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100 * len(ordered)) - 1)]


def measure_end_to_end(args, setup_s: float, workload):
    busy = 0.0
    failed = 0
    attempted = 0
    passes = 0
    latencies: list[float] = []
    with HostClock() as host:
        while busy < args.seconds or passes == 0:
            took, bad = run_pass(workload, latencies, host=host)
            busy += took
            failed += bad
            attempted += sum(workload.ops)
            passes += 1
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    failed += workload.gate()
    print(f"passes {passes}, calls {len(latencies)}, seconds inside calls {busy:.3f}")
    print(f"call latency: p50 {percentile(latencies, 50) * 1e3:.3f} ms, "
          f"p99 {percentile(latencies, 99) * 1e3:.3f} ms over {len(latencies)} calls")
    print(f"raw ops_per_s {attempted / busy} 1/s; reference loop {host.rate} runs/s "
          f"over {host.runs} samples")
    values = {"setup_s": setup_s, "ops_per_ref_s": attempted / host.reference_seconds(busy),
              "peak_rss_mb": peak_rss_mb}
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    return metrics, attempted, failed


def measure_layers(args, root: Path, workload):
    untraced_s, failed = run_pass(workload)
    tracer = Tracer()
    tracer.install()
    origin = time.perf_counter()
    try:
        traced_s, bad = run_pass(workload, tracer=tracer)
    finally:
        tracer.uninstall()
    failed += bad + workload.gate()
    attempted = 2 * sum(workload.ops)

    values: dict[str, float] = dict(tracer.counts)
    for name in tracer.names:
        values[f"{name}.calls"] = tracer.calls[name]
        values[f"{name}.self_s"] = tracer.self_s[name]
    values["ideal.canonical_form.max_s"] = tracer.max_s["ideal.canonical_form"]
    scanned = tracer.counts["verify.sweep.codes_scanned"]
    values["verify.sweep.graph_built_ratio"] = (
        tracer.sweep_graphs_built() / scanned if scanned else 0.0)
    main_ms = [d * 1e3 for d in tracer.durations("cli.main")]
    values["cli.main.p50_ms"] = percentile(main_ms, 50)
    values["cli.main.p99_ms"] = percentile(main_ms, 99)
    values["cli.stdout_bytes"] = getattr(workload, "bytes_per_pass", [0])[-1]
    values["trace.overhead_ratio"] = traced_s / untraced_s
    values["trace.wall_s"] = traced_s

    out = root / ".perfbench_out" / f"spans-{args.workload}-seed{args.seed}.tsv.gz"
    tracer.write(out, origin)
    print(f"{len(tracer.span_name)} spans written to {out.relative_to(root)}")
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER}
    return metrics, attempted, failed


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: a few small inputs, for the self-tests")
    parser.add_argument("--corrupt", action="store_true",
                        help="falsify one output, to show the gates count it")
    args = parser.parse_args(argv)

    root = Path(__file__).resolve().parents[1]
    src = root / "src"
    sys.path.insert(0, str(src))
    try:
        setup_s, workload = set_up(args, src)
    except ImportError as exc:
        print(f"error: cannot import neurocode from {src}: {exc}", file=sys.stderr)
        return 2

    if args.trace:
        metrics, attempted, failed = measure_layers(args, root, workload)
    else:
        metrics, attempted, failed = measure_end_to_end(args, setup_s, workload)
    if hasattr(workload, "digests"):
        print(f"stdout sha256 {workload.digests[0]} (identical in all "
              f"{len(workload.digests)} passes: {len(set(workload.digests)) == 1})")
    print(f"fail_ratio {failed / attempted} ({failed} of {attempted} ops)")
    for name, m in metrics.items():
        print(f"{name} {m['value']} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
