"""Command-line front-end: config parsing, subcommands, CSV/JSON emission.

Configuration is a flat sequence of ``key=value`` tokens, either in a file
(``--config``) or as command-line flags, before or after the subcommand;
flags override the file.  Unknown keys and malformed values are rejected
with the offending line or field named.  Every emitted artifact echoes the
full resolved configuration in its header, which is sufficient to re-run
the identical computation, and all numeric output uses 12 significant
digits.  Each subcommand's runner returns its JSON payload, built from its
result record, and :func:`main` writes it through the one JSON writer,
which rounds every float in it; a CSV runner writes its rows and returns
None.

Every CSV row (the trial CSV, ``error-curve`` and ``dump-density``) comes
from one NumPy row builder, :mod:`lcdisc._csvrows`, which writes the bytes
``fmt`` and ``%d`` would.

Exit codes: 0 success, 2 configuration error, 3 numeric failure.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import functools
import itertools
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator, TextIO

import numpy as np

from lcdisc import montecarlo
from lcdisc._csvrows import (
    SLICE_ROWS,
    FloatCells,
    RowBuffer,
    byte_table,
    float_rows,
    fmt,
    index_width,
    write_indices,
)
from lcdisc.amplitude import (
    ExponentialFamily,
    GaussianFamily,
    HelicityChannel,
    MomentumProfile,
    make_profile,
    momentum_norm,
)
from lcdisc.discrimination import (
    STRATEGIES,
    STRATEGY_PAPER,
    Priors,
    build_report,
    optimal_measurement_time,
    tradeoff_curve,
)
from lcdisc.errors import (
    ConfigError,
    InvalidParameterError,
    LcdiscError,
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
from lcdisc.quadrature import EvenGrid

# most radii one error-curve may list, by R_list or R_min/R_max/R_count;
# each costs a p_t search, or with fixed_t one p_t
MAX_R_COUNT = 4096


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
    strategy: str = STRATEGY_PAPER
    format: str = "csv"
    output: str | None = None
    r_max: float | None = None
    n_points: int = 2048
    L1: float | None = None
    L2: float | None = None
    observer_x: float = 0.5
    trials_csv: str | None = None

    def echo_items(self) -> list[tuple[str, str]]:
        """All set fields as re-parseable key=value pairs, in field order;
        floats, listed ones too, go through :func:`fmt`."""
        items = []
        for field in dataclasses.fields(self):
            value = getattr(self, field.name)
            if isinstance(value, list):
                value = ",".join(map(fmt, value))
            elif isinstance(value, float):
                value = fmt(value)
            if value is not None:
                items.append((field.name, str(value)))
        return items


def _round12(value: Any) -> Any:
    """``value`` with every float in it, in nested dicts and lists too,
    rounded to 12 significant digits; ints and bools are left as they are."""
    if isinstance(value, float):
        return float(fmt(value))
    if isinstance(value, dict):
        return {key: _round12(item) for key, item in value.items()}
    if isinstance(value, list):
        return [_round12(item) for item in value]
    return value


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
    if config.strategy not in STRATEGIES:
        raise ConfigError(f"field strategy: must be one of {STRATEGIES}")
    if config.format not in ("csv", "json"):
        raise ConfigError("field format: must be 'csv' or 'json'")
    for name in ("amp_tol", "prob_tol"):
        value = getattr(config, name)
        if not (math.isfinite(value) and value > 0.0):
            raise ConfigError(f"field {name}: must be finite and positive")
    # the seed is the Philox key, a 128-bit unsigned integer
    if not 0 <= config.seed < 2 ** 128:
        raise ConfigError("field seed: must lie in [0, 2**128)")


def _require(config: RunConfig, *names: str) -> None:
    for name in names:
        if getattr(config, name) is None:
            raise ConfigError(f"field {name}: required for this subcommand")


def _profile(config: RunConfig) -> MomentumProfile:
    _require(config, "family")
    if config.family == "gaussian":
        _require(config, "k0", "sigma")
        if config.kappa is not None:
            raise ConfigError("field kappa: not valid for the gaussian family")
        shape = GaussianFamily(k0=config.k0, sigma=config.sigma)
    elif config.family == "exponential":
        _require(config, "kappa")
        if config.k0 is not None or config.sigma is not None:
            raise ConfigError(
                "fields k0/sigma: not valid for the exponential family")
        shape = ExponentialFamily(kappa=config.kappa)
    else:
        raise ConfigError(
            f"field family: unknown family {config.family!r} "
            "(expected 'gaussian' or 'exponential')")
    try:
        return make_profile(shape, offset_d=config.d)
    except InvalidParameterError as exc:
        raise ConfigError(f"invalid profile parameters: {exc}")


def _radii(config: RunConfig) -> list[float]:
    if config.R_list is not None and config.R_min is not None:
        raise ConfigError("fields R_list and R_min/R_max/R_count: "
                          "give only one way of listing radii")
    if config.R_list is not None:
        if len(config.R_list) > MAX_R_COUNT:
            raise ResourceLimitError(
                f"field R_list: exceeds the cap of {MAX_R_COUNT}")
        return list(config.R_list)
    if config.R_min is not None:
        _require(config, "R_max", "R_count")
        if config.R_count < 1:
            raise ConfigError("field R_count: must be at least 1")
        if config.R_count > MAX_R_COUNT:
            raise ResourceLimitError(
                f"field R_count: exceeds the cap of {MAX_R_COUNT}")
        if config.R_count == 1:
            return [config.R_min]
        return EvenGrid.linspace(config.R_min, config.R_max,
                                 config.R_count).nodes.tolist()
    _require(config, "R")
    return [config.R]


@contextlib.contextmanager
def _open_output(path: str | None) -> Iterator[TextIO]:
    """Yield stdout, or ``path`` opened for writing; OSError is ConfigError.
    A file that a failing command leaves unfinished is removed."""
    opened = finished = False
    try:
        with (contextlib.nullcontext(sys.stdout) if path is None
              else open(path, "w", encoding="utf-8")) as handle:
            opened = path is not None
            yield handle
        finished = True
    except OSError as exc:
        raise ConfigError(f"cannot write output file: {exc}")
    finally:
        if opened and not finished:
            Path(path).unlink(missing_ok=True)


@contextlib.contextmanager
def _csv_writer(path: str | None, command: str, config: RunConfig,
                columns: Iterable[str]) -> Iterator[Callable[[str], int]]:
    """Write the CSV header that echoes the config to ``path`` (stdout if
    None), and yield the function that writes rows as they arrive."""
    with _open_output(path) as handle:
        echo = " ".join(f"{k}={v}" for k, v in config.echo_items())
        handle.write(f"# lcdisc {command}\n# config: {echo}\n"
                     f"{','.join(columns)}\n")
        yield handle.write


def _emit_json(command: str, config: RunConfig, payload: dict) -> None:
    document = {"command": command, "config": dict(config.echo_items()),
                **_round12(payload)}
    with _open_output(config.output) as handle:
        handle.write(json.dumps(document, indent=2, sort_keys=True) + "\n")


# error-curve's CSV columns and JSON keys, with the report field of each
_CURVE_FIELDS = {"R": "R", "t_star": "t_meas", "p_t": "p_t", "P_e": "P_e",
                 "scan_T": "scan_T", "total_T": "total_T"}


def _cmd_error_curve(config: RunConfig) -> dict | None:
    profile = _profile(config)
    priors = Priors(pi0=config.pi0)
    reports = tradeoff_curve(
        profile, priors, _radii(config), (config.t_lo, config.t_hi),
        n_grid=config.t_grid, fixed_t=config.fixed_t,
        prob_tol=config.prob_tol)
    columns = [[getattr(rep, field) for rep in reports]
               for field in _CURVE_FIELDS.values()]
    if config.format == "json":
        return {"priors": {"pi0": priors.pi0, "pi1": priors.pi1},
                "points": [dict(zip(_CURVE_FIELDS, row))
                           for row in zip(*columns)]}
    with _csv_writer(config.output, "error-curve", config,
                     _CURVE_FIELDS) as write_rows:
        write_rows(float_rows(columns))


def _cmd_optimal_time(config: RunConfig) -> dict:
    profile = _profile(config)
    priors = Priors(pi0=config.pi0)
    _require(config, "R")
    best = optimal_measurement_time(
        profile, config.R, (config.t_lo, config.t_hi),
        n_grid=config.t_grid, prob_tol=config.prob_tol)
    report = build_report(priors, config.R, best.t_star, best.p_t_star)
    return {"result": {**dataclasses.asdict(best), "P_e": report.P_e,
                       "scan_T": report.scan_T, "total_T": report.total_T}}


# channel names indexed by "is PLUS"
_CHANNELS = (HelicityChannel.MINUS.name.lower(),
             HelicityChannel.PLUS.name.lower())


# the trial CSV's text before and after rho, indexed by the row's code
# 4 true_plus + 2 inside + guess_plus; outside the ball the outcome is
# unknown, inside it is the true channel
_TRIAL_CODES = list(itertools.product((0, 1), repeat=3))
_TRIAL_PREFIX = byte_table(f",{_CHANNELS[plus]},"
                            for plus, _, _ in _TRIAL_CODES)
_TRIAL_SUFFIX = byte_table(
    f",{inside},"
    f"{_CHANNELS[plus] if inside else montecarlo.Outcome.UNKNOWN.value},"
    f"{_CHANNELS[guess]},{int(plus == guess)}\n"
    for plus, inside, guess in _TRIAL_CODES)


def _trial_rows(batch: montecarlo.TrialBatch) -> str:
    """The trial CSV rows of ``batch``."""
    code = (batch.true_plus.view(np.uint8) << 2 |
            batch.inside.view(np.uint8) << 1 | batch.guess_plus.view(np.uint8))
    prefix, suffix = _TRIAL_PREFIX.itemsize, _TRIAL_SUFFIX.itemsize
    texts = []
    for lo in range(0, batch.rho.size, SLICE_ROWS):
        hi = min(lo + SLICE_ROWS, batch.rho.size)
        cells = FloatCells(batch.rho[lo:hi])
        index = index_width(batch.start + hi)
        rows = RowBuffer(hi - lo, index + prefix + cells.width + suffix)
        write_indices(batch.start + lo, batch.start + hi, rows, 0)
        _TRIAL_PREFIX.take(code[lo:hi], out=rows.field(index, prefix))
        cells.write(rows, index + prefix)
        _TRIAL_SUFFIX.take(code[lo:hi],
                           out=rows.field(index + prefix + cells.width,
                                          suffix))
        texts.append(rows.text())
    return "".join(texts)


def _cmd_monte_carlo(config: RunConfig) -> dict:
    profile = _profile(config)
    priors = Priors(pi0=config.pi0)
    _require(config, "R")
    # the trial CSV is opened before the trials run and written batch by
    # batch, so memory does not grow with the trial count
    columns = ("trial", "true_state", "rho", "inside", "outcome", "guess",
               "correct")
    trials = (_csv_writer(config.trials_csv, "monte-carlo", config, columns)
              if config.trials_csv else contextlib.nullcontext())
    with trials as write_rows:
        estimate = montecarlo.estimate_error(
            profile, priors, config.R, config.t, config.trials, config.seed,
            strategy=config.strategy, prob_tol=config.prob_tol,
            r_max=config.r_max, amp_tol=config.amp_tol,
            on_batch=write_rows and (
                lambda batch: write_rows(_trial_rows(batch))))
    return {"estimate": dataclasses.asdict(estimate)}


def _cmd_dump_density(config: RunConfig) -> None:
    profile = _profile(config)
    grid = radial_density_grid(profile, config.t, r_max=config.r_max,
                               n_points=config.n_points,
                               amp_tol=config.amp_tol)
    with _csv_writer(config.output, "dump-density", config,
                     ("r", "re_amp", "im_amp", "density")) as write_rows:
        write_rows(float_rows([grid.r_grid, grid.amp.real, grid.amp.imag,
                                grid.density]))


def _cmd_scan_time(config: RunConfig) -> dict:
    _require(config, "R")
    return {"result": {"R": config.R, "scan_T": scan_time_ball(config.R)}}


def _cmd_ruler(config: RunConfig) -> dict:
    _require(config, "L1", "L2")
    timing = ruler_min_time(config.L1, config.L2, config.observer_x)
    return {"result": {"L1": config.L1, "L2": config.L2,
                       "observer_position": config.observer_x,
                       **dataclasses.asdict(timing)}}


def _cmd_amplitude_info(config: RunConfig) -> dict:
    profile = _profile(config)
    grid = radial_density_grid(profile, config.t, r_max=config.r_max,
                               n_points=config.n_points,
                               amp_tol=config.amp_tol)
    return {"result": {
        "norm_const": profile.norm_const,
        "k_max": profile.k_max,
        "momentum_norm": momentum_norm(profile),
        "sigma_eff": profile.sigma_eff,
        "default_r_max": default_r_max(profile, config.t),
        "grid_r_max": grid.r_grid[-1],
        "grid_norm": grid.grid_norm,
        "coverage_warning": grid.coverage_warning,
        "r99": quantile_radius(grid, 0.99),
    }}


_RUNNERS = {
    "error-curve": _cmd_error_curve,
    "optimal-time": _cmd_optimal_time,
    "monte-carlo": _cmd_monte_carlo,
    "dump-density": _cmd_dump_density,
    "scan-time": _cmd_scan_time,
    "ruler": _cmd_ruler,
    "amplitude-info": _cmd_amplitude_info,
}
COMMANDS = tuple(_RUNNERS)


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and reused.  The subcommand
    is a positional choice, so flags may come before or after it."""
    parser = argparse.ArgumentParser(
        prog="lcdisc",
        description="Relativistic limits on distinguishing two orthogonal "
                    "single-photon helicity states.")
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--config", metavar="FILE",
                        help="key=value configuration file")
    for key in _KEY_PARSERS:
        parser.add_argument("--" + key.replace("_", "-"), metavar="VALUE")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        file_values: dict[str, Any] = {}
        if args.config is not None:
            try:
                text = Path(args.config).read_text(encoding="utf-8")
            except OSError as exc:
                raise ConfigError(f"cannot read config file: {exc}")
            file_values = parse_config(text)
        flag_values = {
            key: _convert(key, raw, f"flag --{key.replace('_', '-')}")
            for key in _KEY_PARSERS
            if (raw := getattr(args, key)) is not None}
        config = build_config(file_values, flag_values)
        payload = _RUNNERS[args.command](config)
        if payload is not None:
            _emit_json(args.command, config, payload)
    except (ConfigError, InvalidParameterError) as exc:
        print(f"lcdisc: configuration error: {exc}", file=sys.stderr)
        return 2
    except LcdiscError as exc:
        # NumericFailureError, InvalidStateError or ResourceLimitError
        print(f"lcdisc: numeric failure: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
