"""Command line interface.

Subcommands: ``solve`` (closed forms on a time grid), ``simulate``
(adaptive integration of built-in or DSL models), ``ensemble``
(Monte Carlo statistics), ``classify`` (finite-time convergence
verdict for a growth law), ``compose`` (two-phase scenario plan),
``barometer`` (trend test over a CSV series), and ``reproduce``
(canned figure data and headline numbers).

A source, a ``--model`` row of ``solve``, ``simulate`` or ``ensemble``
or ``simulate --dsl``/``--dsl-file``, reads only the flags listed for it
below, ! marking a needed one; another of --k --I --R --n --k1 --k2 --c
--sigma --A0 --Y0 --param --init, or an unset needed one, exits 2.
solve: exponential k R I c, hyperbolic k! I!, powerlaw k! I! n!, loglaw
k! c, coupled-gdp k1!.  simulate: exponential k R I A0, hyperbolic and
loglaw k! A0, powerlaw k! n! A0, coupled-gdp k1! k2! A0 Y0, --dsl param
init A0.  ensemble: hyperbolic-sde k! sigma! A0, gbm k! I! sigma! A0.

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
from .errors import BlowupLabError, DomainError, InsufficientDataError, check_real

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


def _read_text(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise DomainError(f"{path!r} is not UTF-8 text: {exc.reason} at byte {exc.start}") \
            from None


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
            fh.write(",".join(map(repr, np.asarray(row, dtype=float).tolist())) + "\n")
    return name


def _emit_json(args, basename: str, payload: dict) -> None:
    text = _json_text(payload)
    with open(os.path.join(_ensure_out(args), f"{basename}.json"), "w", newline="\n") as fh:
        fh.write(text + "\n")
    print(text)


def _parse_bindings(args, dest: str) -> dict[str, float]:
    bindings: dict[str, float] = {}
    for item in getattr(args, dest) or []:
        for chunk in item.split(","):
            chunk = chunk.strip()
            if not chunk:
                continue
            name, sep, raw = chunk.partition("=")
            name = name.strip()
            if not sep or not name:
                args.parser.error(f"--{dest} expects NAME=VALUE, got {chunk!r}")
            if name in bindings:
                args.parser.error(f"--{dest} gives {name!r} more than once")
            try:
                bindings[name] = float(raw)
            except ValueError:
                args.parser.error(f"--{dest} value for {name!r} is not a number: {raw!r}")
    return bindings


# --------------------------------------------------------------------------
# solve


# model -> (flags solve reads, flags simulate reads ("!" marks a needed one),
#           level at time t, blow-up time or None, DSL source of simulate's rate)
_MODELS = {
    "exponential": ("k R I c", "k R I A0", lambda a, t: closedform.exp_phase_solution(
        *_growth_inputs(a), t, 1.0 if a.c is None else a.c), lambda a: None, "dA = r*A"),
    "hyperbolic": ("k! I!", "k! A0", lambda a, t: closedform.hyperbolic_solution(a.k, a.I, t),
                   lambda a: closedform.hyperbolic_blowup_time(a.k, a.I).t_star, "dA = k*A*A"),
    "powerlaw": ("k! I! n!", "k! n! A0", lambda a, t: closedform.powerlaw_solution(
        a.k, a.I, a.n, t), lambda a: closedform.powerlaw_blowup_time(a.k, a.I, a.n).t_star,
                 "dA = k*A^n"),
    "loglaw": ("k! c", "k! A0", lambda a, t: closedform.loglaw_solution(
        0.0 if a.c is None else a.c, a.k, t), lambda a: None, "dA = k*ln(A)*A"),
    "coupled-gdp": ("k1!", "k1! k2! A0 Y0", lambda a, t: closedform.coupled_gdp_solution(a.k1, t),
                    lambda a: 1.0 / a.k1, "dY = k1*(Y*A); dA = k2*(Y*A)"),
}
# simulate's initial levels of the models' states when --A0/--Y0 are unset
_DEFAULT_LEVELS = {"A": "1", "Y": "k1/k2"}
# the flags that feed a source, in the order usage errors list them
_SOURCE_FLAGS = ("k", "I", "R", "n", "k1", "k2", "c", "sigma", "A0", "Y0", "param", "init")


def _growth_inputs(args) -> tuple[float, float]:
    """The exponential model's ``k`` (``--k``, else from ``--R``) and ``I`` (``--I``, else 1)."""
    I = 1.0 if args.I is None else args.I
    if args.k is not None:
        return check_real("k", args.k, above=0.0), I
    if args.R is not None:
        return closedform.calibrate_k(args.R, I), I
    raise DomainError("no growth rate available: set k or R")


def _check_flags(args, source: str, flags: str) -> None:
    """Exit 2 naming each given source flag that ``flags`` does not list,
    else each flag marked ``!`` there, a needed one, that is unset."""
    listed = flags.split()
    unread = [f"--{f}" for f in _SOURCE_FLAGS if getattr(args, f, None) is not None
              and f not in listed and f + "!" not in listed]
    if unread:
        args.parser.error(f"{source} does not read {', '.join(unread)}")
    missing = [f"--{f}" for f in _SOURCE_FLAGS if f + "!" in listed and getattr(args, f) is None]
    if missing:
        args.parser.error("missing required flags: " + ", ".join(missing))


def cmd_solve(args) -> int:
    parser = args.parser
    if args.steps < 2:
        parser.error("--steps must be at least 2")
    if args.t_max <= 0.0:
        parser.error("--t-max must be positive")
    flags, _, level, blowup_time, _ = _MODELS[args.model]
    _check_flags(args, "--model", flags)
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
    _, flags, _, _, source = _MODELS[args.model]
    _check_flags(args, "--model", flags)
    spec = dsl.parse(source)
    if args.model == "exponential":
        k, I = _growth_inputs(args)
        r = k * I
        params, label = {"r": r}, f"exponential(k*I={r!r})"
    else:
        # the needed flags are the source's parameters
        params = {f[:-1]: getattr(args, f[:-1]) for f in flags.split() if f.endswith("!")}
        label = f"{args.model}({', '.join(f'{n}={v!r}' for n, v in params.items())})"
    levels = [getattr(args, f"{name}0") for name in spec.state_names]
    levels = [dsl.evaluate(dsl.parse(_DEFAULT_LEVELS[name]), params) if level is None
              else level for name, level in zip(spec.state_names, levels)]
    return dsl.to_field(spec, params), np.array(levels), label


def _dsl_field(args) -> tuple[ode.VectorField, np.ndarray, str]:
    parser = args.parser
    _check_flags(args, "--dsl" if args.dsl is not None else "--dsl-file", "param init A0")
    spec = dsl.parse(args.dsl if args.dsl_file is None else _read_text(args.dsl_file))
    params = _parse_bindings(args, "param")
    levels = _parse_bindings(args, "init")
    if not isinstance(spec, dsl.SystemSpec):
        spec = dsl.SystemSpec(equations=((dsl.level_variable(spec, params), spec),))
    field = dsl.to_field(spec, params)
    names = spec.state_names
    if args.A0 is not None:
        if len(names) != 1:
            parser.error("--A0 works only for single-variable systems; use --init")
        if levels:
            parser.error("--A0 and --init both set the initial level; use one")
        levels[names[0]] = args.A0
    unknown = sorted(set(levels) - set(names))
    if unknown:
        parser.error(f"--init names no state variable: {', '.join(unknown)}")
    missing = [n for n in names if n not in levels]
    if missing:
        parser.error("missing initial levels for: " + ", ".join(missing)
                     + " (use --init NAME=VALUE)")
    state0 = np.array([levels[n] for n in names], dtype=float)
    return field, state0, dsl.pretty_print(spec)


def cmd_simulate(args) -> int:
    parser = args.parser
    if args.t_max <= 0.0:
        parser.error("--t-max must be positive")
    field, state0, label = (_dsl_field if args.model is None else _model_field)(args)

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

    rows = (np.concatenate([[t], state])
            for t, state in zip(trajectory.times, trajectory.states))
    path = _write_table(args, "simulate", ["t", *field.names], rows)
    summary = {
        "command": "simulate",
        "model": label,
        "dimension": field.dimension,
        "rows": int(len(trajectory.times)),
        "t_max": args.t_max,
        "final_state": trajectory.states[-1] if len(trajectory.times) else None,
        "final_time": trajectory.times[-1] if len(trajectory.times) else None,
        "blowup": None if trajectory.blowup is None else asdict(trajectory.blowup),
        "table": path,
    }
    _emit_json(args, "simulate_summary", summary)
    return 0


# --------------------------------------------------------------------------
# ensemble


# ensemble --model -> (flags it reads, the model built from them)
_SDE_MODELS = {
    "hyperbolic-sde": ("k! sigma! A0", lambda a: sde.hyperbolic_sde_model(a.k, a.sigma)),
    "gbm": ("k! I! sigma! A0", lambda a: sde.gbm_model(a.k, a.I, a.sigma)),
}


def cmd_ensemble(args) -> int:
    flags, build = _SDE_MODELS[args.model]
    _check_flags(args, "--model", flags)
    model = build(args)
    spec = sde.EnsembleSpec(
        model=model, A0=args.A0, dt=args.dt, t_end=args.t_max,
        n_paths=args.paths, master_seed=args.seed,
    )
    stats = ensemble.run_ensemble(spec)

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
    source = args.dsl if args.dsl_file is None else _read_text(args.dsl_file)
    params = _parse_bindings(args, "param")
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
    plan = analysis.compose_phases(
        args.R, args.I, args.dsl,
        c=args.c if args.c is not None else 1.0,
        switch_level=args.switch_level,
        horizon=args.horizon,
        parameters=_parse_bindings(args, "param"),
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
        "blowup": None if plan.blowup is None else asdict(plan.blowup),
        "rows": int(len(plan.times)),
        "table": path,
    }
    _emit_json(args, "compose_summary", summary)
    return 0


# --------------------------------------------------------------------------
# barometer


def _read_series(path: str, time_col: str, value_col: str | None):
    header, *rows = _read_text(path).split("\n")
    if not header.strip():
        raise DomainError(f"{path!r} is empty")
    columns = [c.strip() for c in header.split(",")]
    if time_col not in columns:
        raise DomainError(f"column {time_col!r} not found in {path!r}")
    if value_col is None:
        value_col = next((c for c in columns if c != time_col), None)
        if value_col is None:
            raise DomainError(f"{path!r} has no value column")
    elif value_col == time_col:
        raise DomainError(f"value column {value_col!r} is the time column")
    elif value_col not in columns:
        raise DomainError(f"column {value_col!r} not found in {path!r}")
    t_idx, v_idx = columns.index(time_col), columns.index(value_col)
    times = []
    values = []
    for line_no, line in enumerate(rows, start=2):
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
    k, I = numbers["k"], numbers["inputs"]["I"]
    grid = np.linspace(0.0, numbers["t1"], 257)
    levels = np.array([closedform.exp_phase_solution(k, I, float(t)) for t in grid])
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


def _i_help(table: dict, column: int) -> str:
    readers = [model for model, row in table.items() if "I" in row[column].replace("!", "").split()]
    return f"driver capability ratio ({', '.join(readers)})"


def _add_scenario_flags(sub: argparse.ArgumentParser, column: int) -> None:
    sub.add_argument("--k", type=float, help="growth coefficient")
    sub.add_argument("--I", type=float, help=_i_help(_MODELS, column))
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
    _add_scenario_flags(solve, 0)
    solve.add_argument("--c", type=float, help="initial level constant")
    solve.add_argument("--model", required=True, choices=tuple(_MODELS))
    solve.add_argument("--t-max", type=float, required=True, help="grid end time")
    solve.add_argument("--steps", type=int, default=101,
                       help="number of grid rows (default: 101)")
    solve.set_defaults(handler=cmd_solve)

    simulate = subs.add_parser("simulate", help="integrate a model adaptively")
    _add_scenario_flags(simulate, 1)
    simulate.add_argument("--k2", type=float, help="coupled-system coefficient 2")
    simulate.add_argument("--A0", type=float, help="initial level")
    simulate.add_argument("--Y0", type=float, help="initial co-factor level")
    source = simulate.add_mutually_exclusive_group(required=True)
    # the built-in fields are the DSL sources of the model table solve reads
    source.add_argument("--model", choices=tuple(_MODELS))
    source.add_argument("--dsl", help="growth-law DSL source text")
    source.add_argument("--dsl-file", help="file with growth-law DSL source")
    simulate.add_argument("--param", action="append", metavar="NAME=VALUE",
                          help="bind a DSL parameter, once per name (repeatable)")
    simulate.add_argument("--init", action="append", metavar="NAME=VALUE",
                          help="a DSL state variable's initial level, once per name (repeatable)")
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

    ens = subs.add_parser(
        "ensemble", help="Euler-Maruyama ensemble statistics; outcomes depend on --dt",
        description="Euler-Maruyama ensemble statistics.  'Exploded' and 'absorbed' "
                    "are outcomes of the Euler-Maruyama scheme and depend on --dt: the "
                    "continuous hyperbolic-sde model neither explodes nor reaches zero.")
    ens.add_argument("--model", required=True, choices=tuple(_SDE_MODELS))
    ens.add_argument("--k", type=float, help="growth coefficient")
    ens.add_argument("--I", type=float, help=_i_help(_SDE_MODELS, 0))
    ens.add_argument("--sigma", type=float, help="volatility coefficient")
    ens.add_argument("--A0", type=float, default=1.0)
    ens.add_argument("--dt", type=float, default=0.01,
                     help="Euler-Maruyama step (default: 0.01); the exploded and "
                          "absorbed fractions depend on it")
    ens.add_argument("--periods", "--t-max", dest="t_max", type=float,
                     default=200.0, help="simulated horizon (default: 200)")
    ens.add_argument("--paths", type=int, default=1000)
    ens.set_defaults(handler=cmd_ensemble)

    classify = subs.add_parser("classify",
                               help="finite-time convergence verdict for a law")
    source = classify.add_mutually_exclusive_group(required=True)
    source.add_argument("--dsl", help="rate expression, e.g. 'k * A^2'")
    source.add_argument("--dsl-file", help="file with the rate expression")
    classify.add_argument("--param", action="append", metavar="NAME=VALUE",
                          help="bind a parameter, once per name (repeatable)")
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
                         help="bind a parameter, once per name (repeatable)")
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
