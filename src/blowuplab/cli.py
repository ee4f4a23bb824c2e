"""Command line interface.

Subcommands: ``solve`` (closed forms on a time grid), ``simulate``
(adaptive integration of built-in or DSL models), ``ensemble``
(Monte Carlo statistics), ``classify`` (finite-time convergence
verdict for a growth law), ``compose`` (two-phase scenario plan),
``barometer`` (trend test over a CSV series), and ``reproduce``
(canned figure data and headline numbers).

Flags sit after the subcommand.  Every subcommand takes ``--out DIR``
for output files; ``solve``, ``simulate``, ``compose`` and
``reproduce`` write tables and take ``--format csv|json``; ``ensemble``
and ``reproduce`` are seeded and take ``--seed N``.  Exit codes: 0 on
success, 2 on usage errors, 3 on domain or model errors (reported on
stderr).  All outputs are deterministic for a fixed command line:
rerunning a seeded command reproduces every file byte for byte.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import asdict

import numpy as np

from . import analysis, closedform, dsl, ensemble, ode, sde
from .errors import BlowupLabError, DomainError, InsufficientDataError

__all__ = ["main", "console_main", "build_parser"]

_FIG3_SETTINGS = ((0.05, 0.05), (0.01, 0.1))


# --------------------------------------------------------------------------
# output helpers


def _fmt(value) -> str:
    return repr(float(value))


def _jsonable(value):
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, np.ndarray):
        return [_jsonable(v) for v in value.tolist()]
    if isinstance(value, (np.floating, float)):
        value = float(value)
        return value if math.isfinite(value) else repr(value)
    if isinstance(value, (np.integer,)):
        return int(value)
    return value


def _json_text(payload) -> str:
    return json.dumps(_jsonable(payload), indent=2, sort_keys=True)


def _ensure_out(args) -> str:
    os.makedirs(args.out, exist_ok=True)
    return args.out


def _write_table(args, basename: str, columns: list[str], rows) -> str:
    """Write tabular data honoring --format; returns the file name.

    Summaries reference tables by bare file name, never by path, so a
    seeded rerun into a different --out directory stays byte-identical.
    """
    name = f"{basename}.{args.format}"
    with open(os.path.join(_ensure_out(args), name), "w", newline="\n") as fh:
        if args.format == "json":
            fh.write(_json_text({"columns": columns, "rows": list(rows)}) + "\n")
            return name
        fh.write(",".join(columns) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(cell) for cell in row) + "\n")
    return name


def _emit_json(args, basename: str, payload: dict) -> None:
    text = _json_text(payload)
    with open(os.path.join(_ensure_out(args), f"{basename}.json"), "w", newline="\n") as fh:
        fh.write(text + "\n")
    print(text)


def _parse_bindings(pairs: list[str] | None, parser, flag: str) -> dict[str, float]:
    bindings: dict[str, float] = {}
    for item in pairs or []:
        for chunk in item.split(","):
            chunk = chunk.strip()
            if not chunk:
                continue
            name, sep, raw = chunk.partition("=")
            if not sep or not name:
                parser.error(f"{flag} expects NAME=VALUE, got {chunk!r}")
            try:
                bindings[name.strip()] = float(raw)
            except ValueError:
                parser.error(f"{flag} value for {name!r} is not a number: {raw!r}")
    return bindings


def _blowup_payload(event: ode.BlowUpEvent | None):
    if event is None:
        return None
    return {"t_low": event.t_low, "t_high": event.t_high,
            "estimate": event.estimate, "method": event.method}


# --------------------------------------------------------------------------
# solve


# model -> (flags solve needs, level at time t, blow-up time or None,
#           DSL source of the rate simulate integrates)
_MODELS = {
    "exponential": ((), lambda a, t: closedform.exp_phase_solution(
        closedform.ScenarioParams(k=a.k, I=a.I, R=a.R, c=a.c), t), lambda a: None,
        "dA = r*A"),
    "hyperbolic": (("k", "I"), lambda a, t: closedform.hyperbolic_solution(a.k, a.I, t),
                   lambda a: closedform.hyperbolic_blowup_time(a.k, a.I).t_star,
                   "dA = k*A*A"),
    "powerlaw": (("k", "I", "n"), lambda a, t: closedform.powerlaw_solution(a.k, a.I, a.n, t),
                 lambda a: closedform.powerlaw_blowup_time(a.k, a.I, a.n).t_star,
                 "dA = k*A^n"),
    "loglaw": (("k",), lambda a, t: closedform.loglaw_solution(
        0.0 if a.c is None else a.c, a.k, t), lambda a: None, "dA = k*ln(A)*A"),
    "coupled-gdp": (("k1",), lambda a, t: closedform.coupled_gdp_solution(a.k1, t),
                    lambda a: 1.0 / a.k1, "dY = k1*(Y*A); dA = k2*(Y*A)"),
}
# simulate's initial levels of the models' states when --A0/--Y0 are unset
_DEFAULT_LEVELS = {"A": "1", "Y": "k1/k2"}


def _need(args, *flags: str) -> None:
    missing = [flag for flag in flags if getattr(args, flag) is None]
    if missing:
        args.parser.error("missing required flags: " + ", ".join(f"--{m}" for m in missing))


def cmd_solve(args) -> int:
    parser = args.parser
    if args.steps < 2:
        parser.error("--steps must be at least 2")
    if args.t_max <= 0.0:
        parser.error("--t-max must be positive")
    flags, level, blowup_time, _ = _MODELS[args.model]
    _need(args, *flags)
    grid = np.linspace(0.0, args.t_max, args.steps)
    # the level functions validate the parameters the blow-up time reads
    levels = [level(args, float(t)) for t in grid]
    path = _write_table(args, f"solve_{args.model}", ["t", "A"], zip(grid, levels))
    summary = {
        "command": "solve",
        "model": args.model,
        "rows": len(grid),
        "t_max": args.t_max,
        "final_level": levels[-1],
        "blowup_time": blowup_time(args),
        "table": path,
    }
    print(_json_text(summary))
    return 0


# --------------------------------------------------------------------------
# simulate


def _model_field(args) -> tuple[ode.VectorField, np.ndarray, str]:
    spec = dsl.parse(_MODELS[args.model][3])
    if args.model == "exponential":
        # the calibrated rate: k, or k from R, times I (default 1)
        scenario = closedform.ScenarioParams(k=args.k, I=args.I, R=args.R)
        r = scenario.growth_coefficient() * (1.0 if args.I is None else args.I)
        params, label = {"r": r}, f"exponential(k*I={r!r})"
    else:
        # the flags needed are the source's parameters
        names = sorted({name for _, rhs in spec.equations for name in dsl.free_names(rhs)}
                       - set(spec.state_names))
        _need(args, *names)
        params = {name: getattr(args, name) for name in names}
        label = f"{args.model}({', '.join(f'{n}={v!r}' for n, v in params.items())})"
    levels = [getattr(args, f"{name}0") for name in spec.state_names]
    levels = [dsl.evaluate(dsl.parse(_DEFAULT_LEVELS[name]), params) if level is None
              else level for name, level in zip(spec.state_names, levels)]
    return dsl.to_field(spec, params), np.array(levels), label


def _dsl_field(args, parser) -> tuple[ode.VectorField, np.ndarray, str]:
    source = args.dsl
    if args.dsl_file is not None:
        with open(args.dsl_file) as fh:
            source = fh.read()
    parsed = dsl.parse(source)
    if not isinstance(parsed, dsl.SystemSpec):
        parsed = dsl.SystemSpec(equations=(("A", parsed),))
    params = _parse_bindings(args.param, parser, "--param")
    init = _parse_bindings(args.init, parser, "--init")
    spec = parsed.bind(parameters=params, initial=init)
    field = dsl.to_field(spec)
    names = spec.state_names
    levels = dict(spec.initial)
    if args.A0 is not None:
        if len(names) != 1:
            parser.error("--A0 works only for single-variable systems; use --init")
        levels[names[0]] = args.A0
    missing = [n for n in names if n not in levels]
    if missing:
        parser.error("missing initial levels for: " + ", ".join(missing)
                     + " (use --init NAME=VALUE)")
    state0 = np.array([levels[n] for n in names], dtype=float)
    return field, state0, dsl.pretty_print(spec)


def cmd_simulate(args) -> int:
    parser = args.parser
    sources = [args.model is not None, args.dsl is not None, args.dsl_file is not None]
    if sum(sources) != 1:
        parser.error("exactly one of --model, --dsl, --dsl-file is required")
    if args.t_max <= 0.0:
        parser.error("--t-max must be positive")
    if args.model is not None:
        field, state0, label = _model_field(args)
    else:
        field, state0, label = _dsl_field(args, parser)

    opts = ode.IntegrationOptions(
        rtol=args.rtol, atol=args.atol,
        blowup_threshold=args.threshold,
        blowup_tol=args.blowup_tol,
    )
    t_eval = None
    if args.points is not None:
        if args.points < 2:
            parser.error("--points must be at least 2")
        t_eval = np.linspace(0.0, args.t_max, args.points)
    trajectory = ode.integrate(field, state0, args.t_max, opts, t_eval=t_eval)

    names = list(field.component_names())
    rows = (np.concatenate([[t], state])
            for t, state in zip(trajectory.times, trajectory.states))
    path = _write_table(args, "simulate", ["t"] + names, rows)
    summary = {
        "command": "simulate",
        "model": label,
        "dimension": field.dimension,
        "rows": int(len(trajectory.times)),
        "t_max": args.t_max,
        "final_state": trajectory.states[-1] if len(trajectory.times) else None,
        "final_time": trajectory.times[-1] if len(trajectory.times) else None,
        "blowup": _blowup_payload(trajectory.blowup),
        "table": path,
    }
    _emit_json(args, "simulate_summary", summary)
    return 0


# --------------------------------------------------------------------------
# ensemble


# ensemble --model -> (flags it needs, the model built from them)
_SDE_MODELS = {
    "hyperbolic-sde": (("k", "sigma"), lambda a: sde.hyperbolic_sde_model(a.k, a.sigma)),
    "gbm": (("k", "I", "sigma"), lambda a: sde.gbm_model(a.k, a.I, a.sigma)),
}


def cmd_ensemble(args) -> int:
    flags, build = _SDE_MODELS[args.model]
    _need(args, *flags)
    model = build(args)
    spec = sde.EnsembleSpec(
        model=model, A0=args.A0, dt=args.dt, t_end=args.t_max,
        n_paths=args.paths, master_seed=args.seed,
    )
    stats = ensemble.run_ensemble(spec, workers=args.workers)

    def cell(value) -> str:
        return "" if math.isnan(value) else _fmt(value)

    paths_name = "ensemble_paths.csv"
    with open(os.path.join(_ensure_out(args), paths_name), "w", newline="\n") as fh:
        fh.write("path,outcome,event_time,terminal_value,slope\n")
        for index, outcome in enumerate(stats.outcomes):
            fh.write(f"{index},{outcome},{cell(stats.event_times[index])},"
                     f"{cell(stats.final_levels[index])},{cell(stats.slopes[index])}\n")

    terminal = stats.terminal_values
    summary = {
        "command": "ensemble",
        "model": model.label,
        "n_paths": stats.n_paths,
        "master_seed": int(args.seed),
        "exploded_fraction": stats.exploded_fraction,
        "absorbed_fraction": stats.absorbed_fraction,
        "blowup_time_quantiles": stats.quantiles,
        "slope_mean": stats.slope_mean,
        "slope_std": stats.slope_std,
        "n_survivors": int(terminal.size),
        "terminal_median": float(np.median(terminal)) if terminal.size else None,
        "paths_table": paths_name,
    }
    _emit_json(args, "ensemble_stats", summary)
    return 0


# --------------------------------------------------------------------------
# classify


def cmd_classify(args) -> int:
    parser = args.parser
    sources = [args.dsl is not None, args.dsl_file is not None]
    if sum(sources) != 1:
        parser.error("exactly one of --dsl, --dsl-file is required")
    source = args.dsl
    if args.dsl_file is not None:
        with open(args.dsl_file) as fh:
            source = fh.read()
    params = _parse_bindings(args.param, parser, "--param")
    verdict = analysis.classify_growth_law(source, A0=args.A0, parameters=params)
    payload = {
        "command": "classify",
        "law": source.strip(),
        "A0": args.A0,
        "verdict": verdict.verdict,
        "singularity_time_estimate": verdict.singularity_time_estimate,
        "tail_exponent": verdict.tail_exponent,
        "evidence": {name: asdict(reading)
                     for name, reading in verdict.evidence.items()},
    }
    _emit_json(args, "classify", payload)
    return 0


# --------------------------------------------------------------------------
# compose


def cmd_compose(args) -> int:
    parser = args.parser
    params = _parse_bindings(args.param, parser, "--param")
    plan = analysis.compose_phases(
        args.R, args.I, args.dsl,
        c=args.c if args.c is not None else 1.0,
        switch_level=args.switch_level,
        horizon=args.horizon,
        parameters=params,
    )
    path = _write_table(args, "compose", ["t", "A"],
                        zip(plan.times, plan.levels))
    summary = {
        "command": "compose",
        "phase1": plan.phase1_label,
        "phase2": plan.phase2_label,
        "switch_time": plan.switch_time,
        "switch_level": plan.switch_level,
        "total_blowup_time": plan.total_blowup_time,
        "blowup": _blowup_payload(plan.blowup),
        "rows": int(len(plan.times)),
        "table": path,
    }
    _emit_json(args, "compose_summary", summary)
    return 0


# --------------------------------------------------------------------------
# barometer


def _read_series(path: str, time_col: str, value_col: str | None):
    with open(path) as fh:
        header = fh.readline().strip()
        if not header:
            raise DomainError(f"{path!r} is empty")
        columns = [c.strip() for c in header.split(",")]
        if time_col not in columns:
            raise DomainError(f"column {time_col!r} not found in {path!r}")
        t_idx = columns.index(time_col)
        if value_col is None:
            candidates = [i for i in range(len(columns)) if i != t_idx]
            if not candidates:
                raise DomainError(f"{path!r} has no value column")
            v_idx = candidates[0]
            value_col = columns[v_idx]
        elif value_col in columns:
            v_idx = columns.index(value_col)
        else:
            raise DomainError(f"column {value_col!r} not found in {path!r}")
        times = []
        values = []
        for line_no, line in enumerate(fh, start=2):
            line = line.strip()
            if not line:
                continue
            cells = line.split(",")
            try:
                times.append(float(cells[t_idx]))
                values.append(float(cells[v_idx]))
            except (ValueError, IndexError):
                raise DomainError(
                    f"{path!r} line {line_no}: cannot read columns "
                    f"{time_col!r}/{value_col!r}"
                ) from None
    if not times:
        raise InsufficientDataError(f"{path!r} contains no data rows")
    return np.array(times), np.array(values), value_col


def cmd_barometer(args) -> int:
    times, values, value_col = _read_series(args.csv, args.time_col, args.value_col)
    report = analysis.barometer(times, values, args.window, args.z)
    payload = {
        "command": "barometer",
        "source": args.csv,
        "value_column": value_col,
        "window": {"start": report.window[0], "end": report.window[1],
                   "n_samples": report.n_samples},
        "quadratic_coeff": report.quadratic_coeff,
        "z_score": report.z_score,
        "z_threshold": args.z,
        "flagged": report.flagged,
    }
    _emit_json(args, "barometer", payload)
    return 0


# --------------------------------------------------------------------------
# reproduce


def _headline_numbers() -> dict:
    R = 1.5872
    I = 100.0
    k = closedform.calibrate_k(R, I)
    t1 = closedform.phase1_duration(R, I)
    t2 = closedform.hyperbolic_blowup_time(k, I).t_star
    t_s = closedform.total_singularity_time(R, I)
    return {
        "inputs": {"R": R, "I": I},
        "k": k,
        "t1": t1,
        "t2": t2,
        "t_s": t_s,
        "formulas": {
            "k": "ln(R)/I",
            "t1": "ln(I)/ln(R)",
            "t2": "1/(k*I), equal to 1/ln(R) for calibrated k",
            "t_s": "t1 + t2",
        },
    }


def _reproduce_headline(args) -> int:
    _emit_json(args, "headline", {"command": "reproduce headline",
                                  **_headline_numbers()})
    return 0


def _reproduce_phase(args, name: str, grid, levels, **extra) -> int:
    path = _write_table(args, name, ["t", "A", "ln_A"], zip(grid, levels, np.log(levels)))
    print(_json_text({"command": f"reproduce {args.target}", "rows": len(grid),
                      "table": path, **extra}))
    return 0


def _reproduce_fig1(args) -> int:
    numbers = _headline_numbers()
    params = closedform.ScenarioParams(R=numbers["inputs"]["R"],
                                       I=numbers["inputs"]["I"], c=1.0)
    grid = np.linspace(0.0, numbers["t1"], 257)
    levels = np.array([closedform.exp_phase_solution(params, float(t)) for t in grid])
    return _reproduce_phase(args, "fig1_exponential_phase", grid, levels)


def _reproduce_fig2(args) -> int:
    numbers = _headline_numbers()
    k, I = numbers["k"], numbers["inputs"]["I"]
    grid = np.linspace(0.0, (1.0 - 1e-4) * numbers["t2"], 257)
    levels = np.array([closedform.hyperbolic_solution(k, I, float(t)) for t in grid])
    return _reproduce_phase(args, "fig2_hyperbolic_phase", grid, levels,
                            level_span=float(levels[-1] / levels[0]))


def _reproduce_fig3(args) -> int:
    specs = [sde.EnsembleSpec(model=sde.hyperbolic_sde_model(k, sigma),
                              A0=1.0, dt=0.01, t_end=200.0, n_paths=100,
                              master_seed=args.seed)
             for k, sigma in _FIG3_SETTINGS]
    batches = sde.simulate_batches(specs, record_points=400)
    tables = []
    for (k, sigma), spec, stats in zip(_FIG3_SETTINGS, specs, batches):
        # the figure shows the paths that never exploded; absorbed ones
        # keep their pre-absorption segment and go blank afterwards
        keep = np.flatnonzero(~stats.exploded)
        times = stats.rec_steps * spec.dt
        columns = ["t"] + [f"path_{i}" for i in keep]
        rows = (np.concatenate([[times[j]], stats.series[keep, j]])
                for j in range(len(times)))
        name = f"fig3_k{k:g}_sigma{sigma:g}"
        tables.append({
            "table": _write_table(args, name, columns, rows),
            "k": k, "sigma": sigma,
            "n_paths": stats.n_paths,
            "n_never_exploded": int(keep.size),
            "n_survivors": int(np.count_nonzero(stats.survived)),
            "exploded_fraction": stats.exploded_fraction,
            "absorbed_fraction": stats.absorbed_fraction,
        })
    print(_json_text({"command": "reproduce fig3", "master_seed": int(args.seed),
                      "settings": tables}))
    return 0


def cmd_reproduce(args) -> int:
    handler = {
        "headline": _reproduce_headline,
        "fig1": _reproduce_fig1,
        "fig2": _reproduce_fig2,
        "fig3": _reproduce_fig3,
    }[args.target]
    return handler(args)


# --------------------------------------------------------------------------
# parser


def _add_scenario_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--k", type=float, help="growth coefficient")
    sub.add_argument("--I", type=float, help="driver capability ratio")
    sub.add_argument("--R", type=float, help="annual growth factor")
    sub.add_argument("--n", type=float, help="power-law exponent")
    sub.add_argument("--k1", type=float, help="coupled-system coefficient 1")


def build_parser() -> argparse.ArgumentParser:
    root = argparse.ArgumentParser(
        prog="blowuplab",
        description="Numerical laboratory for finite-time blow-up growth dynamics.",
    )
    subs = root.add_subparsers(dest="command", required=True)

    solve = subs.add_parser("solve", help="evaluate a closed-form model on a grid")
    _add_scenario_flags(solve)
    solve.add_argument("--c", type=float, help="initial level constant")
    solve.add_argument("--model", required=True, choices=tuple(_MODELS))
    solve.add_argument("--t-max", type=float, required=True, help="grid end time")
    solve.add_argument("--steps", type=int, default=101,
                       help="number of grid rows (default: 101)")
    solve.set_defaults(handler=cmd_solve)

    simulate = subs.add_parser("simulate", help="integrate a model adaptively")
    _add_scenario_flags(simulate)
    simulate.add_argument("--k2", type=float, help="coupled-system coefficient 2")
    simulate.add_argument("--A0", type=float, help="initial level")
    simulate.add_argument("--Y0", type=float, help="initial co-factor level")
    # the built-in fields are the DSL sources of the model table solve reads
    simulate.add_argument("--model", choices=tuple(_MODELS))
    simulate.add_argument("--dsl", help="growth-law DSL source text")
    simulate.add_argument("--dsl-file", help="file with growth-law DSL source")
    simulate.add_argument("--param", action="append", metavar="NAME=VALUE",
                          help="bind a DSL parameter (repeatable)")
    simulate.add_argument("--init", action="append", metavar="NAME=VALUE",
                          help="initial level for a DSL state variable (repeatable)")
    simulate.add_argument("--t-max", type=float, required=True)
    simulate.add_argument("--points", type=int,
                          help="record on a fixed grid of this many points")
    simulate.add_argument("--rtol", type=float, default=1e-8)
    simulate.add_argument("--atol", type=float, default=1e-10)
    simulate.add_argument("--threshold", type=float,
                          default=ode.DEFAULT_BLOWUP_THRESHOLD,
                          help="blow-up detection threshold (default: 1e9)")
    simulate.add_argument("--blowup-tol", type=float,
                          help="blow-up bracket tolerance (default: adaptive)")
    simulate.set_defaults(handler=cmd_simulate)

    ens = subs.add_parser("ensemble", help="Monte Carlo ensemble statistics")
    ens.add_argument("--model", required=True, choices=tuple(_SDE_MODELS))
    ens.add_argument("--k", type=float, help="growth coefficient")
    ens.add_argument("--I", type=float, help="driver capability ratio (gbm)")
    ens.add_argument("--sigma", type=float, help="volatility coefficient")
    ens.add_argument("--A0", type=float, default=1.0)
    ens.add_argument("--dt", type=float, default=0.01)
    ens.add_argument("--periods", "--t-max", dest="t_max", type=float,
                     default=200.0, help="simulated horizon (default: 200)")
    ens.add_argument("--paths", type=int, default=1000)
    ens.add_argument("--workers", type=int, default=1,
                     help="accepted for compatibility; has no effect")
    ens.set_defaults(handler=cmd_ensemble)

    classify = subs.add_parser("classify",
                               help="finite-time convergence verdict for a law")
    classify.add_argument("--dsl", help="rate expression, e.g. 'k * A^2'")
    classify.add_argument("--dsl-file", help="file with the rate expression")
    classify.add_argument("--param", action="append", metavar="NAME=VALUE",
                          help="bind a parameter (repeatable)")
    classify.add_argument("--A0", type=float, default=1.0,
                          help="starting level (default: 1.0)")
    classify.set_defaults(handler=cmd_classify)

    compose = subs.add_parser("compose",
                              help="two-phase plan: driven onset, then a "
                                   "self-improvement law")
    compose.add_argument("--R", type=float, required=True,
                         help="per-period growth factor of the onset phase")
    compose.add_argument("--I", type=float, required=True,
                         help="switching level (driver capability ratio)")
    compose.add_argument("--c", type=float, help="initial level (default: 1)")
    compose.add_argument("--dsl", required=True,
                         help="phase-2 rate expression, e.g. 'k * A^2'")
    compose.add_argument("--param", action="append", metavar="NAME=VALUE",
                         help="bind a parameter (repeatable)")
    compose.add_argument("--switch-level", type=float,
                         help="override the switching level")
    compose.add_argument("--horizon", type=float, default=1e4,
                         help="phase-2 integration budget (default: 1e4)")
    compose.set_defaults(handler=cmd_compose)

    baro = subs.add_parser("barometer", help="trend test over a CSV series")
    baro.add_argument("--csv", required=True, help="input CSV with a header row")
    baro.add_argument("--time-col", default="t")
    baro.add_argument("--value-col", help="defaults to the first non-time column")
    baro.add_argument("--window", type=int, default=64)
    baro.add_argument("--z", type=float, default=3.0, help="z threshold (default: 3)")
    baro.set_defaults(handler=cmd_barometer)

    rep = subs.add_parser("reproduce", help="canned figure data and headline numbers")
    rep.add_argument("target", choices=("fig1", "fig2", "fig3", "headline"))
    rep.set_defaults(handler=cmd_reproduce)

    for sub in (solve, simulate, ens, classify, compose, baro, rep):
        sub.add_argument("--out", default=".", help="output directory (default: .)")
        sub.set_defaults(parser=sub)
    for sub in (solve, simulate, compose, rep):  # the commands that write tables
        sub.add_argument("--format", choices=("csv", "json"), default="csv",
                         help="table format (default: csv)")
    for sub in (ens, rep):  # the seeded commands
        sub.add_argument("--seed", type=int, default=42,
                         help="master seed (default: 42)")
    return root


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (BlowupLabError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


def console_main() -> None:
    sys.exit(main(sys.argv[1:]))
