"""Command-line front end for the entry-threshold solver.

Subcommands:
  solve     solve one configuration and report threshold, coefficients,
            diagnostics, and a p-independence audit.
  curve     tabulate value functions and the two extended idle branches
            on an x grid, one column group per requested p.
  simulate  Monte Carlo policy estimates at scaled thresholds.

Configuration is a flat key-value file (``section.key = value``, '#'
comments) or, detected by a leading '{', a JSON object of sections.
Exit codes: 0 success, 2 configuration error, 3 numeric failure. Set
ENTRYSOLVE_LOG=INFO (or DEBUG, ...) for progress logging on stderr.
"""
from __future__ import annotations

import argparse
import json
import logging
import math
import os
import sys
from dataclasses import dataclass, replace
from functools import cache
from typing import Optional, Sequence

import numpy as np

from .diffusions import DiffusionSpec, gbm, logistic
from .errors import NumericsError
from .payoffs import Payoff, affine, power, saturating
from .simulate import Formulation, PolicyEstimate, SimConfig, threshold_suboptimality_scan
from .solver import (Mode, ProblemParams, Viability, check_entry_viability,
                     p_independence_audit, solve, solve_threshold)

log = logging.getLogger("entrysolve")

_DEFAULT_P_GRID = (0.2, 0.4, 0.6, 0.8, 1.0)
_DEFAULT_CURVE_POINTS = 201

# section -> key -> caster; a config may only use keys listed here
_SCHEMA = {
    "model": {"kind": str, "alpha": float, "beta": float, "gamma": float},
    "economics": {"r": float, "lambda": float, "p": float, "K": float, "C": float},
    "payoff": {"kind": str, "theta": float, "slope": float, "cap": float,
               "scale": float},
    "sim": {"n_paths": int, "seed": int, "dt": float, "horizon_T": float,
            "discount_floor": float, "formulation": str, "x0": float},
    "output": {"path": str, "format": str},
}

# kind -> (factory, the config keys it takes as keyword arguments)
_MODEL_KINDS = {"gbm": (gbm, ("alpha", "beta")),
                "logistic": (logistic, ("alpha", "beta", "gamma"))}
_PAYOFF_KINDS = {"power": (power, ("theta",)), "affine": (affine, ("slope",)),
                 "saturating": (saturating, ("cap", "scale"))}


class ConfigError(ValueError):
    """Malformed or inconsistent run configuration."""


@dataclass(frozen=True)
class RunConfig:
    """Parsed configuration sections; values already schema-typed."""

    model: dict
    economics: dict
    payoff: dict
    sim: dict
    output: dict

    def build_spec(self) -> DiffusionSpec:
        if self.model.get("kind") == "custom":
            raise ConfigError(
                "model.kind = custom needs drift/vol callables, which a "
                "config file cannot express; use the library API instead")
        return _build(self.model, "model", _MODEL_KINDS,
                      "gbm, logistic, or custom")

    def build_payoff(self) -> Payoff:
        return _build(self.payoff, "payoff", _PAYOFF_KINDS,
                      "power, affine, or saturating")

    def build_params(self) -> ProblemParams:
        h = self.build_payoff()
        kwargs = {}
        for key, field in (("r", "r"), ("lambda", "lam"), ("p", "p"),
                           ("K", "K"), ("C", "C")):
            kwargs[field] = _need(self.economics, "economics", key)
        try:
            return ProblemParams(h=h, **kwargs)
        except ValueError as e:
            raise ConfigError(f"economics: {e}") from None

    def build_sim(self, formulation: Formulation) -> SimConfig:
        if "n_paths" not in self.sim:
            raise ConfigError("missing required config key 'sim.n_paths'")
        # SimConfig's own defaults stand for the keys a config leaves out
        kwargs = {key: self.sim[key] for key in
                  ("n_paths", "seed", "dt", "horizon_T", "discount_floor")
                  if key in self.sim}
        try:
            return SimConfig(formulation=formulation, **kwargs)
        except ValueError as e:
            raise ConfigError(f"sim: {e}") from None

    def sim_formulations(self) -> list[Formulation]:
        name = self.sim.get("formulation", "both")
        if name == "both":
            return [Formulation.FULL, Formulation.THINNED]
        try:
            return [Formulation(name)]
        except ValueError:
            raise ConfigError(f"unknown sim.formulation {name!r} "
                              "(expected full, thinned, or both)") from None

    def out_format(self, flag: Optional[str], default: str) -> str:
        fmt = flag or self.output.get("format") or default
        if fmt not in ("csv", "json"):
            raise ConfigError(f"unknown output.format {fmt!r} "
                              "(expected csv or json)")
        return fmt


def _need(section: dict, sect_name: str, key: str):
    if key not in section:
        raise ConfigError(f"missing required config key '{sect_name}.{key}'")
    return section[key]


def _build(section: dict, sect_name: str, kinds: dict, expected: str):
    """What a section's kind builds: its factory in kinds, called on the
    keys that kind takes; a section key it does not take is an error."""
    kind = _need(section, sect_name, "kind")
    if kind not in kinds:
        raise ConfigError(f"unknown {sect_name}.kind {kind!r} (expected {expected})")
    factory, keys = kinds[kind]
    for key in section:
        if key != "kind" and key not in keys:
            raise ConfigError(f"config key '{sect_name}.{key}' does not apply "
                              f"to kind {kind!r}")
    args = {key: _need(section, sect_name, key) for key in keys}
    try:
        return factory(**args)
    except ValueError as e:
        raise ConfigError(f"{sect_name}: {e}") from None


def _cast(sect: str, key: str, value) -> object:
    if sect not in _SCHEMA:
        raise ConfigError(f"unknown config section '{sect}'")
    caster = _SCHEMA[sect].get(key)
    if caster is None:
        raise ConfigError(f"unknown config key '{sect}.{key}'")
    if caster is str:
        if not isinstance(value, str):
            raise ConfigError(f"config key '{sect}.{key}' must be a string, "
                              f"got {value!r}")
        return value
    if isinstance(value, bool):
        raise ConfigError(f"config key '{sect}.{key}' must be a number, "
                          f"got {value!r}")
    try:
        return caster(value)
    except (TypeError, ValueError):
        raise ConfigError(f"config key '{sect}.{key}': cannot parse {value!r} "
                          f"as {caster.__name__}") from None


class _JsonObject(dict):
    """A decoded JSON object; repeated is its first repeated key, or None
    (a plain dict would keep the last value silently)."""

    def __init__(self, pairs: list):
        super().__init__(pairs)
        keys = [key for key, _ in pairs]
        self.repeated = next((k for i, k in enumerate(keys) if k in keys[:i]), None)


def parse_config(text: str) -> RunConfig:
    """Parse flat key-value or JSON configuration text."""
    sections: dict[str, dict] = {name: {} for name in _SCHEMA}
    if text.lstrip().startswith("{"):
        try:
            raw = json.loads(text, object_pairs_hook=_JsonObject)
        except json.JSONDecodeError as e:
            raise ConfigError(f"invalid JSON config: {e}") from None
        if not isinstance(raw, dict):
            raise ConfigError("JSON config must be an object of sections")
        if raw.repeated is not None:
            raise ConfigError(f"duplicate config section '{raw.repeated}'")
        for sect, body in raw.items():
            if sect not in _SCHEMA:
                raise ConfigError(f"unknown config section '{sect}'")
            if not isinstance(body, dict):
                raise ConfigError(f"config section '{sect}' must be an object")
            if body.repeated is not None:
                raise ConfigError(f"duplicate config key '{sect}.{body.repeated}'")
            for key, value in body.items():
                sections[sect][key] = _cast(sect, key, value)
    else:
        for ln, raw_line in enumerate(text.splitlines(), start=1):
            line = raw_line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ConfigError(f"config line {ln}: expected "
                                  f"'section.key = value', got {line!r}")
            dotted, _, value = line.partition("=")
            dotted = dotted.strip()
            sect, dot, key = dotted.partition(".")
            if not dot or not sect or not key:
                raise ConfigError(f"config line {ln}: key {dotted!r} must be "
                                  "'section.key'")
            if key in sections.get(sect, {}):
                raise ConfigError(f"duplicate config key '{sect}.{key}'")
            if sect not in _SCHEMA:
                raise ConfigError(f"unknown config section '{sect}'")
            sections[sect][key] = _cast(sect, key, value.strip())
    return RunConfig(model=sections["model"], economics=sections["economics"],
                     payoff=sections["payoff"], sim=sections["sim"],
                     output=sections["output"])


def load_config(path: str) -> RunConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as e:
        raise ConfigError(f"cannot read config file {path!r}: {e}") from None
    return parse_config(text)


def _finite_or_none(v: float) -> Optional[float]:
    v = float(v)
    return v if math.isfinite(v) else None


def _fmt_cell(v) -> str:
    if isinstance(v, float):
        return repr(v)
    if isinstance(v, (list, tuple)):
        return " ".join(_fmt_cell(item) for item in v)
    return str(v)


def _csv_table(columns: Sequence[str], rows: Sequence[Sequence]) -> str:
    lines = [",".join(columns)]
    for row in rows:
        lines.append(",".join(_fmt_cell(v) for v in row))
    return "\n".join(lines) + "\n"


def _json_table(columns: Sequence[str], rows: Sequence[Sequence]) -> str:
    clean = [[_finite_or_none(v) if isinstance(v, float) else v for v in row]
             for row in rows]
    return json.dumps({"columns": list(columns), "rows": clean}, indent=2) + "\n"


def cmd_solve(config: RunConfig, p_grid: Optional[Sequence[float]] = None,
              fmt: Optional[str] = None) -> str:
    """Solve the configured problem; report mode, threshold, coefficients,
    diagnostics, and the threshold spread over a p audit grid."""
    spec = config.build_spec()
    params = config.build_params()
    out_fmt = config.out_format(fmt, default="json")
    grid = tuple(p_grid) if p_grid is not None else _DEFAULT_P_GRID
    solution = solve(spec, params)
    log.info("solved: mode=%s x_star=%s", solution.mode.value, solution.x_star)

    report: dict = {"mode": solution.mode.value}
    if solution.mode is Mode.THRESHOLD:
        spread = p_independence_audit(spec, params, grid)
        report["x_star"] = solution.x_star
        report["c_i1"] = solution.c_i1
        report["d_i2"] = solution.d_i2
        report["c_a1"] = solution.c_a1
        report["diagnostics"] = {
            "pasting_gap_value": solution.diagnostics.pasting_gap_value,
            "pasting_gap_slope": solution.diagnostics.pasting_gap_slope,
            "growth_margin": solution.diagnostics.growth_margin,
            "root_residual": solution.diagnostics.root_residual,
        }
        report["p_independence_audit"] = {
            "p_grid": list(grid), "threshold_spread": spread}
    else:
        report["c_i1"] = None
        report["d_i2"] = None
        report["c_a1"] = None
        report["diagnostics"] = None
        report["p_independence_audit"] = None

    if out_fmt == "json":
        return json.dumps(report, indent=2) + "\n"
    rows = []
    for key, value in report.items():
        if isinstance(value, dict):
            for sub, v in value.items():
                rows.append((f"{key}.{sub}", v))
        elif value is not None:
            rows.append((key, value))
    return _csv_table(("key", "value"), rows)


def cmd_curve(config: RunConfig, x_min: Optional[float] = None,
              x_max: Optional[float] = None, points: Optional[int] = None,
              p_list: Optional[Sequence[float]] = None,
              fmt: Optional[str] = None) -> str:
    """Tabulate G_i, G_a, and the extended idle branches on an x grid,
    one column group per p; the threshold is inserted as a grid row
    whenever it falls strictly inside the range."""
    spec = config.build_spec()
    params = config.build_params()
    out_fmt = config.out_format(fmt, default="csv")
    ps = [float(p) for p in (p_list if p_list is not None else [params.p])]
    n_points = _DEFAULT_CURVE_POINTS if points is None else int(points)
    if n_points < 2:
        raise ConfigError(f"--points must be >= 2, got {n_points}")
    for p in ps:
        if not 0.0 < p <= 1.0:
            raise ConfigError(f"--p-list values must lie in (0, 1], got {p:g}")

    solutions = [solve(spec, replace(params, p=p)) for p in ps]
    x_star = solutions[0].x_star
    if x_min is None:
        if x_star is None:
            raise ConfigError("--x-min is required when the configuration "
                              "has no finite threshold")
        x_min = x_star / 50.0
    if x_max is None:
        if x_star is None:
            raise ConfigError("--x-max is required when the configuration "
                              "has no finite threshold")
        x_max = 2.0 * x_star
    x_min, x_max = float(x_min), float(x_max)
    if not 0.0 < x_min < x_max:
        raise ConfigError(f"need 0 < x_min < x_max, got x_min={x_min:g}, "
                          f"x_max={x_max:g}")

    grid = np.linspace(x_min, x_max, n_points)
    if x_star is not None and x_min < x_star < x_max:
        grid = np.unique(np.append(grid, x_star))
    log.info("curve: %d points on [%g, %g], p=%s", grid.size, x_min, x_max, ps)

    columns = ["x"]
    data = [grid]
    for p, sol in zip(ps, solutions):
        tag = f"[p={p:g}]"
        columns += [f"G_i{tag}", f"G_a{tag}",
                    f"branch_lower{tag}", f"branch_upper{tag}"]
        data += list(sol.table(grid).values())
    rows = [[float(col[i]) for col in data] for i in range(grid.size)]
    if out_fmt == "json":
        return _json_table(columns, rows)
    return _csv_table(columns, rows)


def _warn(message: str) -> None:
    print(f"WARN: {message}", file=sys.stderr)


def cmd_simulate(config: RunConfig,
                 threshold_multipliers: Optional[Sequence[float]] = None,
                 fmt: Optional[str] = None) -> str:
    """Monte Carlo estimates of the idle value at scaled thresholds,
    one row per (multiplier, formulation). Statistical cross-checks
    (multiplier 1.0 maximal; formulations agreeing) print WARN lines
    on failure but never change the exit code."""
    spec = config.build_spec()
    params = config.build_params()
    out_fmt = config.out_format(fmt, default="csv")
    multipliers = [float(m) for m in (threshold_multipliers
                                      if threshold_multipliers is not None
                                      else [1.0])]
    if check_entry_viability(params) is Viability.NEVER_ENTER:
        raise NumericsError("entry is never worthwhile for this "
                            "configuration; there is no threshold to scan")
    x_star = solve_threshold(spec, params)
    x0 = config.sim.get("x0")
    if x0 is None:
        x0 = x_star / 2.0
    formulations = config.sim_formulations()

    by_form: dict[Formulation, list[PolicyEstimate]] = {}
    for form in formulations:
        cfg = config.build_sim(form)
        log.info("simulate: %s, %d paths, %d multipliers",
                 form.value, cfg.n_paths, len(multipliers))
        by_form[form] = threshold_suboptimality_scan(
            spec, params, x0, multipliers, cfg, base_threshold=x_star)

    ref_idx = multipliers.index(1.0)
    for form, estimates in by_form.items():
        ref = estimates[ref_idx]
        for m, est in zip(multipliers, estimates):
            gap = est.mean - ref.mean
            band = 3.0 * math.hypot(est.stderr, ref.stderr)
            if gap > band:
                _warn(f"{form.value}: multiplier {m:g} beats 1.0 by "
                      f"{gap:.4g} (> 3 stderr {band:.4g})")
    if len(formulations) == 2:
        for i, m in enumerate(multipliers):
            full_est = by_form[Formulation.FULL][i]
            thin_est = by_form[Formulation.THINNED][i]
            gap = abs(full_est.mean - thin_est.mean)
            band = 3.0 * math.hypot(full_est.stderr, thin_est.stderr)
            if gap > band:
                _warn(f"multiplier {m:g}: full and thinned estimates differ "
                      f"by {gap:.4g} (> 3 combined stderr {band:.4g})")

    columns = ("multiplier", "formulation", "threshold", "mean", "stderr",
               "n_paths", "n_entries_mean", "catastrophe_fraction")
    rows = []
    for i, m in enumerate(multipliers):
        for form in formulations:
            est = by_form[form][i]
            rows.append([m, form.value, m * x_star, est.mean, est.stderr,
                         est.n_paths, est.n_entries_mean,
                         est.catastrophe_fraction])
    if out_fmt == "json":
        return _json_table(columns, rows)
    return _csv_table(columns, rows)


def _parse_float_list(text: str, flag: str) -> list[float]:
    try:
        values = [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise ConfigError(f"{flag} must be a comma-separated list of "
                          f"numbers, got {text!r}") from None
    if not values:
        raise ConfigError(f"{flag} must contain at least one number")
    return values


def _setup_logging() -> None:
    name = os.environ.get("ENTRYSOLVE_LOG", "").strip()
    if not name:
        return
    level = logging.getLevelName(name.upper())
    logging.basicConfig(
        level=level if isinstance(level, int) else logging.INFO,
        format="%(levelname)s %(name)s: %(message)s")


@cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parse_args leaves it
    unchanged, so every main call can share it."""
    parser = argparse.ArgumentParser(
        prog="entrysolve",
        description="Optimal entry thresholds for sequential investment "
                    "under forced exits and catastrophe risk.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--config", required=True, metavar="PATH",
                        help="run configuration file (flat key-value or JSON)")
        sp.add_argument("--out", metavar="PATH",
                        help="output file (default: stdout)")
        sp.add_argument("--format", choices=("csv", "json"),
                        help="output format (default: json for solve, "
                             "csv otherwise)")

    sp = sub.add_parser("solve", help="solve threshold and coefficients")
    common(sp)
    sp.add_argument("--p-list", metavar="P1,P2,...",
                    help="success probabilities for the p-independence "
                         "audit (default 0.2,0.4,0.6,0.8,1.0)")

    sp = sub.add_parser("curve", help="tabulate value functions on a grid")
    common(sp)
    sp.add_argument("--x-min", type=float, help="grid start (default x*/50)")
    sp.add_argument("--x-max", type=float, help="grid end (default 2 x*)")
    sp.add_argument("--points", type=int,
                    help=f"grid size (default {_DEFAULT_CURVE_POINTS})")
    sp.add_argument("--p-list", metavar="P1,P2,...",
                    help="one column group per probability "
                         "(default: the configured economics.p)")

    sp = sub.add_parser("simulate", help="Monte Carlo policy estimates")
    common(sp)
    sp.add_argument("--multipliers", metavar="M1,M2,...",
                    help="threshold multipliers, must include 1.0 "
                         "(default 1.0)")
    sp.add_argument("--seed", type=int, help="override sim.seed")
    sp.add_argument("--paths", type=int, help="override sim.n_paths")
    return parser


def _apply_overrides(config: RunConfig, args: argparse.Namespace) -> RunConfig:
    output = dict(config.output)
    if args.out is not None:
        output["path"] = args.out
    sim = dict(config.sim)
    if getattr(args, "seed", None) is not None:
        sim["seed"] = args.seed
    if getattr(args, "paths", None) is not None:
        sim["n_paths"] = args.paths
    return replace(config, output=output, sim=sim)


def main(argv: Optional[Sequence[str]] = None) -> int:
    _setup_logging()
    args = _build_parser().parse_args(argv)
    try:
        config = _apply_overrides(load_config(args.config), args)
        if args.command == "solve":
            grid = (_parse_float_list(args.p_list, "--p-list")
                    if args.p_list else None)
            text = cmd_solve(config, p_grid=grid, fmt=args.format)
        elif args.command == "curve":
            ps = (_parse_float_list(args.p_list, "--p-list")
                  if args.p_list else None)
            text = cmd_curve(config, x_min=args.x_min, x_max=args.x_max,
                             points=args.points, p_list=ps, fmt=args.format)
        else:
            ms = (_parse_float_list(args.multipliers, "--multipliers")
                  if args.multipliers else None)
            text = cmd_simulate(config, threshold_multipliers=ms,
                                fmt=args.format)
        path = config.output.get("path")
        if path:
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
        return 0
    except (ConfigError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except NumericsError as e:
        print(f"numeric failure: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
