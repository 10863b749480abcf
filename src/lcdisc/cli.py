"""Command-line front-end: config parsing, subcommands, CSV/JSON emission.

Configuration is a flat sequence of ``key=value`` tokens, either in a file
(``--config``) or as command-line flags; flags override the file.  Unknown
keys and malformed values are rejected with the offending line or field
named.  Every emitted artifact echoes the full resolved configuration in its
header, which is sufficient to re-run the identical computation, and all
numeric output uses 12 significant digits.

Exit codes: 0 success, 2 configuration error, 3 numeric failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import sys
from dataclasses import dataclass
from typing import Any

import numpy as np

from lcdisc import montecarlo
from lcdisc.amplitude import (
    ExponentialFamily,
    GaussianFamily,
    HelicityChannel,
    MomentumProfile,
    make_profile,
    momentum_norm,
)
from lcdisc.discrimination import (
    Priors,
    build_report,
    optimal_measurement_time,
    outside_probability,
    total_error,
    tradeoff_curve,
)
from lcdisc.errors import (
    ConfigError,
    InvalidParameterError,
    InvalidStateError,
    LcdiscError,
    NumericFailureError,
    ResourceLimitError,
)
from lcdisc.lightcone import ruler_min_time, scan_time_ball
from lcdisc.propagation import (
    DEFAULT_AMP_TOL,
    DEFAULT_PROB_TOL,
    default_r_max,
    quantile_radius,
    radial_density_grid,
)

COMMANDS = ("error-curve", "optimal-time", "monte-carlo", "dump-density",
            "scan-time", "ruler", "amplitude-info")


@dataclass
class RunConfig:
    """Fully resolved configuration shared by all subcommands."""

    family: str | None = None
    k0: float | None = None
    sigma: float | None = None
    kappa: float | None = None
    d: float = 0.0
    pi0: float = 0.5
    R: float | None = None
    R_list: list[float] | None = None
    R_min: float | None = None
    R_max: float | None = None
    R_count: int | None = None
    t: float = 0.0
    t_lo: float = 0.0
    t_hi: float = 20.0
    t_grid: int = 32
    fixed_t: float | None = None
    amp_tol: float = DEFAULT_AMP_TOL
    prob_tol: float = DEFAULT_PROB_TOL
    trials: int = 100000
    seed: int = 1
    strategy: str = "paper"
    format: str = "csv"
    output: str | None = None
    r_max: float | None = None
    n_points: int = 2048
    L1: float | None = None
    L2: float | None = None
    observer_x: float = 0.5
    trials_csv: str | None = None

    def echo_items(self) -> list[tuple[str, str]]:
        """All set fields as re-parseable key=value pairs, in field order."""
        items = []
        for field in dataclasses.fields(self):
            value = getattr(self, field.name)
            if value is None:
                continue
            items.append((field.name, _format_value(value)))
        return items


def _format_value(value: Any) -> str:
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, float):
        return format(value, ".12g")
    if isinstance(value, list):
        return ",".join(format(v, ".12g") for v in value)
    return str(value)


def fmt(x: float) -> str:
    """Render a float with 12 significant digits."""
    return format(float(x), ".12g")


def _round12(x: float) -> float:
    return float(fmt(x))


def _float_list(raw: str) -> list[float]:
    return [float(part) for part in raw.split(",") if part != ""]


# parser of each RunConfig field, in field order, by its annotation (a
# string under postponed evaluation); optional fields parse like the rest
_PARSERS = {"float": float, "int": int, "str": str, "list[float]": _float_list}
_KEY_PARSERS = {field.name: _PARSERS[field.type.removesuffix(" | None")]
         for field in dataclasses.fields(RunConfig)}


def _convert(key: str, raw: str, where: str):
    try:
        return _KEY_PARSERS[key](raw)
    except ValueError:
        raise ConfigError(f"{where}: invalid value {raw!r} for key {key!r}")


def parse_config(text: str) -> dict[str, Any]:
    """Parse key=value configuration text into typed values.

    Tokens are whitespace-separated; lines starting with ``#`` are comments.
    Unknown keys, malformed tokens, and duplicate keys are errors that name
    the offending line.
    """
    values: dict[str, Any] = {}
    seen_line: dict[str, int] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        for token in stripped.split():
            if "=" not in token:
                raise ConfigError(
                    f"line {lineno}: expected key=value, got {token!r}")
            key, raw = token.split("=", 1)
            if key not in _KEY_PARSERS:
                raise ConfigError(f"line {lineno}: unknown key {key!r}")
            if key in seen_line:
                raise ConfigError(
                    f"line {lineno}: duplicate key {key!r} "
                    f"(first set on line {seen_line[key]})")
            seen_line[key] = lineno
            values[key] = _convert(key, raw, f"line {lineno}")
    return values


def build_config(file_values: dict[str, Any],
                 flag_values: dict[str, Any]) -> RunConfig:
    """Merge config-file values and flag overrides over the defaults."""
    config = RunConfig()
    for source in (file_values, flag_values):
        for key, value in source.items():
            setattr(config, key, value)
    _validate_ranges(config)
    return config


def _validate_ranges(config: RunConfig) -> None:
    if not 0.0 <= config.pi0 <= 1.0:
        raise ConfigError("field pi0: must lie in [0, 1]")
    if config.strategy not in ("paper", "map"):
        raise ConfigError("field strategy: must be 'paper' or 'map'")
    if config.format not in ("csv", "json"):
        raise ConfigError("field format: must be 'csv' or 'json'")
    for name in ("amp_tol", "prob_tol"):
        if getattr(config, name) <= 0.0:
            raise ConfigError(f"field {name}: must be positive")
    # the seed is the Philox key, a 128-bit unsigned integer
    if not 0 <= config.seed < 2 ** 128:
        raise ConfigError("field seed: must lie in [0, 2**128)")


def _require(config: RunConfig, *names: str) -> None:
    for name in names:
        if getattr(config, name) is None:
            raise ConfigError(f"field {name}: required for this subcommand")


def _profile(config: RunConfig) -> MomentumProfile:
    _require(config, "family")
    family = config.family
    if family == "gaussian":
        _require(config, "k0", "sigma")
        if config.kappa is not None:
            raise ConfigError("field kappa: not valid for the gaussian family")
        shape = GaussianFamily(k0=config.k0, sigma=config.sigma)
    elif family == "exponential":
        _require(config, "kappa")
        if config.k0 is not None or config.sigma is not None:
            raise ConfigError(
                "fields k0/sigma: not valid for the exponential family")
        shape = ExponentialFamily(kappa=config.kappa)
    else:
        raise ConfigError(
            f"field family: unknown family {family!r} "
            "(expected 'gaussian' or 'exponential')")
    try:
        return make_profile(shape, offset_d=config.d)
    except InvalidParameterError as exc:
        raise ConfigError(f"invalid profile parameters: {exc}")


def _radii(config: RunConfig) -> list[float]:
    chosen = [name for name in ("R_list", "R_min", "R") if
              getattr(config, name) is not None]
    if "R_list" in chosen and "R_min" in chosen:
        raise ConfigError("fields R_list and R_min/R_max/R_count: "
                          "give only one way of listing radii")
    if config.R_list is not None:
        return list(config.R_list)
    if config.R_min is not None:
        _require(config, "R_max", "R_count")
        if config.R_count < 1:
            raise ConfigError("field R_count: must be at least 1")
        return list(np.linspace(config.R_min, config.R_max, config.R_count))
    _require(config, "R")
    return [config.R]


def _csv_header(command: str, config: RunConfig, columns: str) -> list[str]:
    echo = " ".join(f"{k}={v}" for k, v in config.echo_items())
    return [f"# lcdisc {command}", f"# config: {echo}", columns]


def _emit(text: str, path: str | None) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)


def _emit_json(command: str, config: RunConfig, payload: dict) -> None:
    document = {"command": command, "config": dict(config.echo_items())}
    document.update(payload)
    _emit(json.dumps(document, indent=2, sort_keys=True) + "\n", config.output)


def _cmd_error_curve(config: RunConfig) -> None:
    profile = _profile(config)
    priors = Priors(pi0=config.pi0)
    reports = tradeoff_curve(
        profile, priors, _radii(config), (config.t_lo, config.t_hi),
        n_grid=config.t_grid, fixed_t=config.fixed_t,
        prob_tol=config.prob_tol)
    if config.format == "json":
        points = [{
            "R": _round12(rep.R),
            "t_star": _round12(rep.t_meas),
            "p_t": _round12(rep.p_t),
            "P_e": _round12(rep.P_e),
            "scan_T": _round12(rep.scan_T),
            "total_T": _round12(rep.total_T),
        } for rep in reports]
        _emit_json("error-curve", config, {
            "priors": {"pi0": _round12(priors.pi0),
                       "pi1": _round12(priors.pi1)},
            "points": points,
        })
        return
    lines = _csv_header("error-curve", config,
                        "R,t_star,p_t,P_e,scan_T,total_T")
    for rep in reports:
        lines.append(",".join(fmt(v) for v in (
            rep.R, rep.t_meas, rep.p_t, rep.P_e, rep.scan_T, rep.total_T)))
    _emit("\n".join(lines) + "\n", config.output)


def _cmd_optimal_time(config: RunConfig) -> None:
    profile = _profile(config)
    priors = Priors(pi0=config.pi0)
    _require(config, "R")
    best = optimal_measurement_time(
        profile, config.R, (config.t_lo, config.t_hi),
        n_grid=config.t_grid, prob_tol=config.prob_tol)
    report = build_report(priors, config.R, best.t_star, best.p_t_star)
    _emit_json("optimal-time", config, {"result": {
        "t_star": _round12(best.t_star),
        "p_t_star": _round12(best.p_t_star),
        "on_boundary": best.on_boundary,
        "P_e": _round12(report.P_e),
        "scan_T": _round12(report.scan_T),
        "total_T": _round12(report.total_T),
    }})


def _cmd_monte_carlo(config: RunConfig) -> None:
    profile = _profile(config)
    priors = Priors(pi0=config.pi0)
    _require(config, "R")
    rows: list[str] = []
    # channel names indexed by "is PLUS"; outside the ball the outcome is
    # unknown, inside it is the true channel
    channel = (HelicityChannel.MINUS.name.lower(),
               HelicityChannel.PLUS.name.lower())
    unknown = montecarlo.Outcome.UNKNOWN.value

    def record_rows(batch: montecarlo.TrialBatch) -> None:
        columns = zip(range(batch.start, batch.start + batch.rho.size),
                      batch.true_plus.tolist(), batch.rho.tolist(),
                      batch.inside.tolist(), batch.guess_plus.tolist(),
                      batch.correct.tolist())
        rows.extend(
            f"{index},{channel[plus]},{fmt(rho)},{int(inside)},"
            f"{channel[plus] if inside else unknown},{channel[guess]},"
            f"{int(correct)}"
            for index, plus, rho, inside, guess, correct in columns)

    estimate = montecarlo.estimate_error(
        profile, priors, config.R, config.t, config.trials, config.seed,
        strategy=config.strategy, prob_tol=config.prob_tol,
        r_max=config.r_max, amp_tol=config.amp_tol,
        on_batch=record_rows if config.trials_csv else None)
    if config.trials_csv:
        header = _csv_header(
            "monte-carlo", config,
            "trial,true_state,rho,inside,outcome,guess,correct")
        _emit("\n".join(header + rows) + "\n", config.trials_csv)
    _emit_json("monte-carlo", config, {"estimate": {
        "n_trials": estimate.n_trials,
        "n_errors": estimate.n_errors,
        "empirical_rate": _round12(estimate.empirical_rate),
        "analytic_rate": _round12(estimate.analytic_rate),
        "std_err": _round12(estimate.std_err),
        "n_unknown": estimate.n_unknown,
        "unknown_rate": _round12(estimate.unknown_rate),
        "p_t": _round12(estimate.p_t),
    }})


def _cmd_dump_density(config: RunConfig) -> None:
    profile = _profile(config)
    grid = radial_density_grid(profile, config.t, r_max=config.r_max,
                               n_points=config.n_points,
                               amp_tol=config.amp_tol)
    lines = _csv_header("dump-density", config, "r,re_amp,im_amp,density")
    for r, amp, density in zip(grid.r_grid, grid.amp, grid.density):
        lines.append(",".join(fmt(v) for v in
                              (r, amp.real, amp.imag, density)))
    _emit("\n".join(lines) + "\n", config.output)


def _cmd_scan_time(config: RunConfig) -> None:
    _require(config, "R")
    _emit_json("scan-time", config, {"result": {
        "R": _round12(config.R),
        "scan_T": _round12(scan_time_ball(config.R)),
    }})


def _cmd_ruler(config: RunConfig) -> None:
    _require(config, "L1", "L2")
    timing = ruler_min_time(config.L1, config.L2, config.observer_x)
    _emit_json("ruler", config, {"result": {
        "L1": _round12(config.L1),
        "L2": _round12(config.L2),
        "observer_position": _round12(config.observer_x),
        "min_time": _round12(timing.min_time),
        "indistinguishable": timing.indistinguishable,
    }})


def _cmd_amplitude_info(config: RunConfig) -> None:
    profile = _profile(config)
    grid = radial_density_grid(profile, config.t, r_max=config.r_max,
                               n_points=config.n_points,
                               amp_tol=config.amp_tol)
    _emit_json("amplitude-info", config, {"result": {
        "norm_const": _round12(profile.norm_const),
        "k_max": _round12(profile.k_max),
        "momentum_norm": _round12(momentum_norm(profile)),
        "sigma_eff": _round12(profile.sigma_eff),
        "default_r_max": _round12(default_r_max(profile, config.t)),
        "grid_norm": _round12(grid.grid_norm),
        "coverage_warning": grid.coverage_warning,
        "r99": _round12(quantile_radius(grid, 0.99)),
    }})


_RUNNERS = {
    "error-curve": _cmd_error_curve,
    "optimal-time": _cmd_optimal_time,
    "monte-carlo": _cmd_monte_carlo,
    "dump-density": _cmd_dump_density,
    "scan-time": _cmd_scan_time,
    "ruler": _cmd_ruler,
    "amplitude-info": _cmd_amplitude_info,
}


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and reused: seven subparsers
    of about thirty flags each cost several milliseconds to build, and
    ``parse_args`` leaves the parser unchanged."""
    parser = argparse.ArgumentParser(
        prog="lcdisc",
        description="Relativistic limits on distinguishing two orthogonal "
                    "single-photon helicity states.")
    subparsers = parser.add_subparsers(dest="command", required=True)
    for command in COMMANDS:
        sub = subparsers.add_parser(command)
        sub.add_argument("--config", metavar="FILE",
                         help="key=value configuration file")
        for key in _KEY_PARSERS:
            flag = "--" + key.replace("_", "-")
            sub.add_argument(flag, dest=f"cfg_{key}", metavar="VALUE")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        file_values: dict[str, Any] = {}
        if args.config is not None:
            try:
                with open(args.config, encoding="utf-8") as handle:
                    text = handle.read()
            except OSError as exc:
                raise ConfigError(f"cannot read config file: {exc}")
            file_values = parse_config(text)
        flag_values = {
            key: _convert(key, raw, f"flag --{key.replace('_', '-')}")
            for key in _KEY_PARSERS
            if (raw := getattr(args, f"cfg_{key}")) is not None
        }
        config = build_config(file_values, flag_values)
        _RUNNERS[args.command](config)
    except (ConfigError, InvalidParameterError) as exc:
        print(f"lcdisc: configuration error: {exc}", file=sys.stderr)
        return 2
    except (NumericFailureError, InvalidStateError, ResourceLimitError) as exc:
        print(f"lcdisc: numeric failure: {exc}", file=sys.stderr)
        return 3
    except LcdiscError as exc:
        print(f"lcdisc: error: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
