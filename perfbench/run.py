"""Benchmark of the blowuplab package: one workload, one seed, one result.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from ``src/``.
The run sets up (import, inputs from the seed, one warm-up op), then
repeats passes over the workload's fixed list of ops for about
``--seconds`` seconds, checks every op's output, prints each metric by
name with its unit, and ends with one JSON line::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``.
``--trace 1`` alternates untraced passes with traced ones and reports
the per-layer metrics instead, including the tracing overhead.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_PROBES = 5
MIN_ROUNDS = {False: 2, True: 1}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def setup(args, scratch: Path):
    """Import the package, build the inputs from the seed, run one warm-up op."""
    from workloads import WORKLOADS, load_library

    lib = load_library(SRC)
    workload = WORKLOADS[args.workload](lib, args.seed, scratch)
    workload.warmup()
    return lib, workload


def probe_setup(args, scratch: Path) -> None:
    """Print the seconds of one set-up and the median reference after it."""
    start = time.perf_counter()
    setup(args, scratch)
    seconds = time.perf_counter() - start
    from workloads import reference_seconds

    print(seconds, statistics.median(reference_seconds() for _ in range(3)))


def setup_seconds(args) -> tuple[list[float], list[float]]:
    """Set-up times of fresh interpreters, so the import is paid each time,
    and the reference times measured alongside."""
    command = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
               "--workload", args.workload, "--seed", str(args.seed)]
    seconds, references = [], []
    for _ in range(SETUP_PROBES):
        probe = subprocess.run(command, capture_output=True, text=True, timeout=120,
                               cwd=ROOT)
        if probe.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{probe.stderr}")
        took, reference = (float(x) for x in probe.stdout.split()[-2:])
        seconds.append(took)
        references.append(reference)
    return seconds, references


def measure(workload, lib, seconds: float, trace: bool):
    """Run rounds of passes for about ``seconds``; a round is one untraced
    pass, plus one traced pass when tracing, in alternating order."""
    from layers import instrument
    from tracer import Tracer
    from workloads import Pass

    plain, traced = [], []
    start = time.perf_counter()
    rounds = 0
    while True:
        kinds = [False, True] if trace else [False]
        if rounds % 2:
            kinds.reverse()
        for with_trace in kinds:
            tracer = None
            if with_trace:
                tracer = Tracer()
                instrument(tracer, lib)
            p = Pass(tracer=tracer)
            try:
                workload.run_pass(p, tracer)
            finally:
                if tracer is not None:
                    tracer.unpatch()
            p.close()
            if tracer is not None:
                p.facts["spans"] = tracer.take()
            (traced if with_trace else plain).append(p)
        rounds += 1
        elapsed = time.perf_counter() - start
        if rounds >= MIN_ROUNDS[trace] and elapsed * (rounds + 1) / rounds > seconds:
            return plain, traced


def end_to_end(args, plain) -> tuple[dict, dict]:
    """The metrics on the reference machine, and the times unscaled."""
    from workloads import REFERENCE_S, median_ms

    setups, setup_references = setup_seconds(args)
    metrics = {
        "setup_s": statistics.median(s * REFERENCE_S[1] / r
                                     for s, r in zip(setups, setup_references)),
        "wall_s": statistics.median(p.scaled for p in plain),
        "core_ms_p50": median_ms(plain, "core"),
        "side_ms_p50": median_ms(plain, "side"),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    raw = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(p.seconds for p in plain),
        "core_ms_p50": median_ms(plain, "core", scaled=False),
        "side_ms_p50": median_ms(plain, "side", scaled=False),
    }
    return metrics, raw


def per_layer(workload, plain, traced, units) -> dict:
    from layers import layer_metrics, src_lines

    per_pass = []
    for p in traced:
        layer = layer_metrics(p.facts.pop("spans"))
        for name in layer:
            if units[name] == "s":
                layer[name] *= p.scaled / p.seconds
        per_pass.append(layer)
    metrics = {}
    for name in per_pass[0]:
        values = [m[name] for m in per_pass]
        if units[name] == "count":
            if len(set(values)) != 1:
                print(f"warning: count {name} differs between traced passes: {values}",
                      file=sys.stderr)
            metrics[name] = values[0]
        else:
            metrics[name] = statistics.median(values)
    # layers a workload does not exercise read zero
    metrics.update({"sde.live_lane_steps": 0, "ensemble.exploded": 0,
                    "ensemble.absorbed": 0, "ensemble.survived": 0,
                    "cli.bytes_written": 0, "ode.max_rel_err": 0.0,
                    "dsl.field_over_lambda": 0.0})
    metrics.update(workload.layer_facts(plain, traced))
    lane_steps = metrics["sde.lane_steps"]
    metrics["sde.lane_utilisation"] = \
        metrics["sde.live_lane_steps"] / lane_steps if lane_steps else 0.0
    metrics.update(src_lines(SRC))
    metrics["trace.overhead"] = (statistics.median(p.scaled for p in traced)
                                 / statistics.median(p.scaled for p in plain))
    return metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    predictions = json.loads((HERE / "layers.json").read_text())["predictions"]
    if sorted(predictions) != sorted(m["name"] for m in spec["per_layer"]):
        print("layers.json and the per_layer metrics of BENCHMARK.json disagree",
              file=sys.stderr)
        return 2
    known = [w["name"] for w in spec["workloads"]]
    if args.workload not in known:
        print(f"unknown workload {args.workload!r}; choose from {known}", file=sys.stderr)
        return 2
    if not (SRC / "blowuplab" / "__init__.py").is_file():
        print(f"no package source at {SRC}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(HERE))
    scratch = ROOT / ".bench_out" / f"{args.workload}-{args.seed}-{time.time_ns()}"

    if args.setup_probe:
        probe_setup(args, scratch)
        return 0

    trace = bool(args.trace)
    raw: dict[str, float] = {}
    scratch.mkdir(parents=True)
    try:
        lib, workload = setup(args, scratch)
        plain, traced = measure(workload, lib, args.seconds, trace)
        if trace:
            listed = spec["per_layer"]
            values = per_layer(workload, plain, traced,
                               {m["name"]: m["unit"] for m in listed})
        else:
            listed = spec["end_to_end"]
            values, raw = end_to_end(args, plain)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        with contextlib.suppress(OSError):  # other runs may still use it
            scratch.parent.rmdir()

    passes = plain + traced
    attempted = sum(len(p.ops) for p in passes)
    failures = [f for p in passes for f in p.failures()]
    for line in failures[:20]:
        print(f"failed: {line}", file=sys.stderr)

    print(f"workload {args.workload}  seed {args.seed}  "
          f"passes {len(plain)} untraced, {len(traced)} traced")
    metrics = {}
    for m in listed:
        name = m["name"]
        metrics[name] = {"value": values[name], "unit": m["unit"]}
        note = f"  (unscaled {raw[name]:.6g})" if name in raw else ""
        if trace:
            moves = predictions[name]["moves"]
            note = "  -> " + (", ".join(f"{e} on {w}" for e, w in moves) if moves
                              else predictions[name].get("note", "no end-to-end metric"))
        print(f"  {name:<28} {values[name]:.6g} {m['unit']}{note}")
    for name, value, unit in workload.report(plain):
        if name not in metrics:
            print(f"  {name:<28} {value} {unit}")
    print(f"  {'failed_frac':<28} {len(failures) / attempted:.6g} "
          f"({len(failures)} of {attempted} ops)")
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
