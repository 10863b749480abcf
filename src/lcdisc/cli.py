"""Command-line front-end: argv and config parsing, subcommands, CSV/JSON
emission.

``lcdisc COMMAND [--config FILE] [--flag VALUE ...]``: one subcommand,
anywhere; each flag is a config key with ``_`` as ``-``, matched exactly,
as ``--flag VALUE`` or ``--flag=VALUE``.  Configuration is a flat sequence
of ``key=value`` tokens, either in a file (``--config``) or as flags;
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

Exit codes: 0 success, 2 configuration error, 3 numeric failure, resource
limit or invalid state, which the message names.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
import sys
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii as _json_str
from pathlib import Path
from typing import Any, Callable, Iterable, NoReturn

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
        for name in _KEY_PARSERS:
            value = getattr(self, name)
            if isinstance(value, list):
                value = ",".join(map(fmt, value))
            elif isinstance(value, float):
                value = fmt(value)
            if value is not None:
                items.append((name, str(value)))
        return items


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


class _Output:
    """``with _Output(path) as write``: ``write`` writes bytes to ``path``,
    or to stdout if None.  OSError is ConfigError, and a file that a
    failing command leaves unfinished is removed."""

    def __init__(self, path: str | None):
        self.path = path

    def __enter__(self) -> Callable[[bytes], int]:
        if self.path is None:
            # text already written to stdout goes first
            sys.stdout.flush()
            return sys.stdout.buffer.write
        try:
            self.handle = open(self.path, "wb")
        except OSError as exc:
            raise ConfigError(f"cannot write output file: {exc}")
        return self.handle.write

    def __exit__(self, kind, exc, traceback) -> None:
        if self.path is not None:
            try:
                self.handle.close()
            except OSError as close_exc:
                exc = exc if exc is not None else close_exc
            if exc is not None:
                Path(self.path).unlink(missing_ok=True)
        if isinstance(exc, OSError):
            raise ConfigError(f"cannot write output file: {exc}")


def _csv_head(command: str, config: RunConfig,
              columns: Iterable[str]) -> bytes:
    """The CSV header, which echoes the config, and the column names."""
    echo = " ".join(f"{k}={v}" for k, v in config.echo_items())
    return (f"# lcdisc {command}\n# config: {echo}\n{','.join(columns)}\n"
            .encode())


def _json_text(value: Any, indent: str = "") -> str:
    """``json.dumps(value, indent=2, sort_keys=True)`` for a document of
    str-keyed dicts, lists, str, int, float, bool and None, with every
    float rounded to 12 significant digits (:func:`fmt`) on the way, built
    from json's C string encoder and the number reprs (with an indent,
    ``json.dumps`` runs json's Python encoder).  Ints and bools are written
    as they are."""
    if isinstance(value, str):
        return _json_str(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        if value != value:
            return "NaN"
        value = float(fmt(value))
        return _INFINITIES.get(value) or float.__repr__(value)
    inner = indent + "  "
    sep = ",\n" + inner
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = sep.join([f"{_json_str(key)}: {_json_text(item, inner)}"
                          for key, item in sorted(value.items())])
        return "{\n" + inner + items + "\n" + indent + "}"
    if isinstance(value, list):
        if not value:
            return "[]"
        items = sep.join([_json_text(item, inner) for item in value])
        return "[\n" + inner + items + "\n" + indent + "]"
    raise TypeError(f"Object of type {type(value).__name__} "
                    "is not JSON serializable")


_INFINITIES = {math.inf: "Infinity", -math.inf: "-Infinity"}


def _emit_json(command: str, config: RunConfig, payload: dict) -> None:
    document = {"command": command, "config": dict(config.echo_items()),
                **payload}
    data = (_json_text(document) + "\n").encode()
    with _Output(config.output) as write:
        write(data)


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
    with _Output(config.output) as write:
        write(_csv_head("error-curve", config, _CURVE_FIELDS))
        float_rows(columns, write)


def _cmd_optimal_time(config: RunConfig) -> dict:
    profile = _profile(config)
    priors = Priors(pi0=config.pi0)
    _require(config, "R")
    best = optimal_measurement_time(
        profile, config.R, (config.t_lo, config.t_hi),
        n_grid=config.t_grid, prob_tol=config.prob_tol)
    report = build_report(priors, config.R, best.t_star, best.p_t_star)
    return {"result": {**vars(best), "P_e": report.P_e,
                       "scan_T": report.scan_T, "total_T": report.total_T}}


# channel names indexed by "is PLUS"
_CHANNELS = ("minus", "plus")


# the trial CSV's text before and after rho, indexed by the row's code
# 4 true_plus + 2 inside + guess_plus; outside the ball the outcome is
# unknown, inside it is the true channel
_TRIAL_CODES = list(itertools.product((0, 1), repeat=3))
_TRIAL_PREFIX = byte_table(f",{_CHANNELS[plus]},"
                            for plus, _, _ in _TRIAL_CODES)
_TRIAL_SUFFIX = byte_table(
    f",{inside},"
    f"{_CHANNELS[plus] if inside else 'unknown'},"
    f"{_CHANNELS[guess]},{int(plus == guess)}\n"
    for plus, inside, guess in _TRIAL_CODES)


_TRIAL_COLUMNS = ("trial", "true_state", "rho", "inside", "outcome", "guess",
                  "correct")


def _trial_rows(batch: montecarlo.TrialBatch,
                write: Callable[[bytes], object]) -> None:
    """The trial CSV rows of ``batch``, passed to ``write`` as ASCII bytes,
    one slice at a time."""
    code = (batch.true_plus.view(np.uint8) << 2 |
            batch.inside.view(np.uint8) << 1 | batch.guess_plus.view(np.uint8))
    prefix, suffix = _TRIAL_PREFIX.itemsize, _TRIAL_SUFFIX.itemsize
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
        write(rows.data())


def _cmd_monte_carlo(config: RunConfig) -> dict:
    profile = _profile(config)
    priors = Priors(pi0=config.pi0)
    _require(config, "R")

    def estimate(on_batch):
        return montecarlo.estimate_error(
            profile, priors, config.R, config.t, config.trials, config.seed,
            strategy=config.strategy, prob_tol=config.prob_tol,
            r_max=config.r_max, amp_tol=config.amp_tol, on_batch=on_batch)

    if not config.trials_csv:
        return {"estimate": vars(estimate(None))}
    # the trial CSV is opened before the trials run and written batch by
    # batch, so memory does not grow with the trial count
    with _Output(config.trials_csv) as write:
        write(_csv_head("monte-carlo", config, _TRIAL_COLUMNS))
        result = estimate(lambda batch: _trial_rows(batch, write))
    return {"estimate": vars(result)}


def _cmd_dump_density(config: RunConfig) -> None:
    profile = _profile(config)
    grid = radial_density_grid(profile, config.t, r_max=config.r_max,
                               n_points=config.n_points,
                               amp_tol=config.amp_tol)
    with _Output(config.output) as write:
        write(_csv_head("dump-density", config,
                        ("r", "re_amp", "im_amp", "density")))
        float_rows([grid.r_grid, grid.amp.real, grid.amp.imag,
                    grid.density], write)


def _cmd_scan_time(config: RunConfig) -> dict:
    _require(config, "R")
    return {"result": {"R": config.R, "scan_T": scan_time_ball(config.R)}}


def _cmd_ruler(config: RunConfig) -> dict:
    _require(config, "L1", "L2")
    timing = ruler_min_time(config.L1, config.L2, config.observer_x)
    return {"result": {"L1": config.L1, "L2": config.L2,
                       "observer_position": config.observer_x,
                       **vars(timing)}}


def _cmd_amplitude_info(config: RunConfig) -> dict:
    profile = _profile(config)
    grid = radial_density_grid(profile, config.t, r_max=config.r_max,
                               n_points=config.n_points,
                               amp_tol=config.amp_tol)
    return {"result": {
        "norm_const": profile.norm_const,
        "k_max": profile.k_max,
        "momentum_norm": momentum_norm(profile),
        "momentum_width": profile.family.momentum_width,
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


# the label of each error kind that exits 3
_FAILURE_KINDS = {NumericFailureError: "numeric failure",
                  ResourceLimitError: "resource limit",
                  InvalidStateError: "invalid state"}


# every flag's config key: "--config" and each RunConfig key, "_" as "-"
_FLAGS = {"--config": "config",
          **{"--" + key.replace("_", "-"): key for key in _KEY_PARSERS}}
_USAGE = "usage: lcdisc COMMAND [--config FILE] [--flag VALUE ...]\n"


def _help() -> str:
    """The usage line, the subcommands and every flag, in field order."""
    return "".join([_USAGE, "\ncommands:\n"]
                   + [f"  {name}\n" for name in COMMANDS]
                   + ["\nflags, as --flag VALUE or --flag=VALUE:\n"]
                   + [f"  {flag}\n" for flag in _FLAGS])


def _usage_error(reason: str) -> NoReturn:
    sys.stderr.write(f"{_USAGE}lcdisc: error: {reason}\n")
    raise SystemExit(2)


def _parse_argv(argv: list[str]) -> tuple[str, dict[str, str]]:
    """The subcommand of ``argv`` and each flag's raw value by its key."""
    command = None
    raw: dict[str, str] = {}
    tokens = iter(argv)
    for token in tokens:
        if token == "-h" or token == "--help":
            sys.stdout.write(_help())
            raise SystemExit(0)
        if not token.startswith("-"):
            if command is not None:
                _usage_error(f"unexpected argument {token!r}")
            if token not in _RUNNERS:
                _usage_error(f"invalid command {token!r} "
                             f"(choose from {', '.join(COMMANDS)})")
            command = token
            continue
        flag, equals, value = token.partition("=")
        if flag not in _FLAGS:
            _usage_error(f"unrecognized flag {flag!r}")
        if not equals:
            value = next(tokens, None)
            if value is None:
                _usage_error(f"flag {flag} expects a value")
        raw[_FLAGS[flag]] = value
    if command is None:
        _usage_error(f"a command is required ({', '.join(COMMANDS)})")
    return command, raw


def main(argv: list[str] | None = None) -> int:
    command, raw = _parse_argv(sys.argv[1:] if argv is None else argv)
    try:
        file_values: dict[str, Any] = {}
        config_path = raw.pop("config", None)
        if config_path is not None:
            try:
                text = Path(config_path).read_text(encoding="utf-8")
            except OSError as exc:
                raise ConfigError(f"cannot read config file: {exc}")
            file_values = parse_config(text)
        flag_values = {
            key: _convert(key, value, f"flag --{key.replace('_', '-')}")
            for key, value in raw.items()}
        config = build_config(file_values, flag_values)
        payload = _RUNNERS[command](config)
        if payload is not None:
            _emit_json(command, config, payload)
    except (ConfigError, InvalidParameterError) as exc:
        print(f"lcdisc: configuration error: {exc}", file=sys.stderr)
        return 2
    except LcdiscError as exc:
        kind = _FAILURE_KINDS.get(type(exc), "failure")
        print(f"lcdisc: {kind}: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
