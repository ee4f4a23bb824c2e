"""What the traced run wraps, and how spans become per-layer metrics.

The layers are the package modules.  ``instrument`` wraps their public
functions at every module attribute a caller reads, so calls made from
inside the package are seen too; ``layer_metrics`` folds the spans of
one traced pass into the per-layer metrics named in ``BENCHMARK.json``.
Which end-to-end metric each of them should move, and on which
workload, is in ``layers.json`` next to this file.
"""

from __future__ import annotations

from pathlib import Path

from tracer import SIZE, Tracer, summarize, under

MODULES = ("closedform", "ode", "sde", "ensemble", "analysis", "dsl", "cli", "errors")
CLI_TARGETS = ("headline", "fig1", "fig2", "fig3")
MODEL_SPANS = ("sde.drift", "sde.diffusion")


def src_lines(src: Path) -> dict[str, int]:
    return {f"{m}.src_lines": len((src / "blowuplab" / f"{m}.py").read_bytes().splitlines())
            for m in MODULES}


def instrument(tracer: Tracer, lib) -> None:
    """Wrap the package's public functions; ``tracer.unpatch()`` undoes it."""
    t = tracer

    def traced_model(span, model, args):
        return t.model(model)

    def traced_field(span, field, args):
        return type(field)(field.dimension, t.wrap("dsl.rate", field.rate), field.names)

    def traced_law(span, fn, args):
        return t.wrap("dsl.law", fn)

    def flagged(span, report, args):
        span[SIZE] = int(report.flagged)
        return report

    def rungs(span, verdict, args):
        span[SIZE] = int(verdict.evidence["quadrature"].details.get("rungs", 0))
        return verdict

    for name in ("em_path", "pathwise_growth_slope", "ergodicity_check"):
        t.patch(lib.sde, name, f"sde.{name}")
    # models built inside the package (the scan, fig3) get traced callables
    for module in (lib.sde, lib.ensemble):
        t.patch(module, "hyperbolic_sde_model", "sde.hyperbolic_sde_model",
                on_result=traced_model)
    for name in ("run_ensemble", "volatility_masking_scan"):
        t.patch(lib.ensemble, name, f"ensemble.{name}")
    for module in (lib.ensemble, lib.analysis):
        t.patch(module, "barometer", "analysis.barometer", on_result=flagged)
    t.patch(lib.analysis, "classify_growth_law", "analysis.classify_growth_law",
            on_result=rungs)
    for module in (lib.ode, lib.analysis):
        for name in ("estimate_blowup_time", "integrate"):
            t.patch(module, name, f"ode.{name}")
    t.patch(lib.dsl, "parse", "dsl.parse")
    t.patch(lib.dsl, "to_field", "dsl.to_field", on_result=traced_field)
    t.patch(lib.dsl, "as_function", "dsl.as_function", on_result=traced_law)
    t.patch(lib.cli, "main", lambda args, kwargs: f"cli.main.{args[0][1]}")
    for name in lib.closedform.__all__:
        if callable(getattr(lib.closedform, name)) and name[0].islower():
            t.patch(lib.closedform, name, f"closedform.{name}")


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Per-layer times (seconds in one pass) and counts from its spans."""
    spans = under(spans, "op:")
    s = summarize(spans)

    def total(*names, attr="seconds"):
        return sum(getattr(s[n], attr) for n in names if n in s)

    def ensemble_run(op_label):
        return summarize(under(spans, "op:" + op_label)).get("ensemble.run_ensemble")

    threaded = ensemble_run("run_ensemble workers=2")
    serial = ensemble_run("run_ensemble workers=1")
    run_s = threaded.seconds if threaded else 0.0
    serial_s = serial.seconds if serial else 0.0

    out = {
        "sde.em_path_s": total("sde.em_path"),
        "sde.model_s": total(*MODEL_SPANS),
        "sde.model_calls": total("sde.drift", attr="calls"),
        "sde.lane_steps": total("sde.drift", attr="size"),
        "sde.ergodicity_s": total("sde.ergodicity_check"),
        "sde.slope_s": total("sde.pathwise_growth_slope"),
        "ensemble.run_s": run_s,
        "ensemble.self_s": threaded.self_seconds if threaded else 0.0,
        "ensemble.scan_s": total("ensemble.volatility_masking_scan"),
        "ensemble.serial_s": serial_s,
        "ensemble.thread_speedup": serial_s / run_s if run_s else 0.0,
        "analysis.barometer_s": total("analysis.barometer"),
        "analysis.barometer_calls": total("analysis.barometer", attr="calls"),
        "analysis.flagged": total("analysis.barometer", attr="size"),
        "analysis.classify_s": total("analysis.classify_growth_law"),
        "analysis.law_evals": total("dsl.law", attr="calls"),
        "analysis.quad_rungs": total("analysis.classify_growth_law", attr="size"),
        "ode.estimate_s": total("ode.estimate_blowup_time"),
        "ode.integrate_s": total("ode.integrate"),
        "ode.rate_evals": total("ode.rate", "dsl.rate", attr="calls"),
        "ode.rate_s": total("ode.rate", "dsl.rate"),
        "ode.self_s": total("ode.estimate_blowup_time", "ode.integrate", attr="self_seconds"),
        "dsl.parse_s": total("dsl.parse"),
        "dsl.rate_s": total("dsl.rate", "dsl.law"),
        "dsl.rate_evals": total("dsl.rate", "dsl.law", attr="calls"),
        "closedform.self_s": sum(v.self_seconds for k, v in s.items()
                                 if k.startswith("closedform.")),
    }
    for target in CLI_TARGETS:
        out[f"cli.main_s.{target}"] = total(f"cli.main.{target}")
    return out
