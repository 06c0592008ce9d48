"""Scenario settings and their plain-text form, both ways.

Format: UTF-8 ``key = value`` lines, ``#`` starts a comment, optional
``[section]`` headers group keys cosmetically (key names are global).
Unknown keys and sections are hard errors so that typos never silently
fall back to defaults.

Angles accept literal radians or ``pi`` expressions (``pi``, ``-pi/2``,
``3pi/4``, ``2pi``).  Grids are either ``start:stop:count``, which
includes both endpoints, or a comma-separated list of angles;
``segment_counts`` is a comma-separated integer list.

:func:`parse_config` only turns text into typed values; every range and
choice rule lives in :class:`ScenarioConfig`, so library callers get the
same checks as config files, but for the output, pair-rate and fit-grid
rules: they depend on what a subcommand reads, so :func:`parse_config`
applies them, and library callers meet them in the layers below.
:data:`SCENARIOS` is the one table of subcommands, and
:func:`scenario_keys` the keys each reads: a config file for a subcommand
may set only those, and its manifest lists only those, so a manifest
alone re-runs its subcommand.  :func:`format_config` is the inverse of
:func:`parse_config`: the text it writes parses back to the same settings.
"""

from __future__ import annotations

import math
import numbers
import re
from dataclasses import dataclass, field, fields
from types import SimpleNamespace
from typing import Callable

import numpy as np

from .medium import DIM_RULE, MatrixKind
from .rng import SEED_RULE, check_integer, check_seed
from .shaping import sine_design
from .twophoton import OUTCOME_LABELS, SOURCE_PRESETS, check_grid, cosine_design, rms_bandwidth_from_filter_fwhm

__all__ = [
    "ConfigError", "ScenarioConfig", "SCENARIOS", "scenario_keys", "parse_config", "format_config", "parse_angle",
    "parse_grid",
]


class ConfigError(ValueError):
    """Malformed or unknown configuration input."""


_CHOICES = {
    "medium_kind": tuple(kind.value for kind in MatrixKind),
    "circuit": ("ideal", "shaped"),
    "method": ("analytic", "stepped"),
    "source": tuple(sorted(SOURCE_PRESETS)),
    "counting": ("analytic", "montecarlo"),
}
# field -> (lowest, bound above, what the field must be)
_INTEGERS = {
    **dict.fromkeys(("n_out", "n_in"), DIM_RULE),
    **dict.fromkeys(("segments", "steps", "pulses_per_point", "seeds"), (1, math.inf, "positive integer")),
    **dict.fromkeys(("output_m", "output_n"), (0, math.inf, "nonnegative integer")),
    "medium_seed": SEED_RULE,
}
# field -> (what the field must be, test of its float value)
_NUMBERS: dict[str, tuple[str, Callable[[float], bool]]] = {
    "t": ("nonnegative number", lambda x: 0.0 <= x < math.inf),
    "alpha": ("finite angle", math.isfinite),
    "overlap": ("number in [0, 1]", lambda x: 0.0 <= x <= 1.0),
    "bandwidth_fwhm_nm": ("positive number with a finite rms bandwidth",
                          lambda x: 0.0 < x < math.inf and 0.0 < rms_bandwidth_from_filter_fwhm(x) < math.inf),
    "mean_pairs_per_pulse": ("nonnegative number", lambda x: 0.0 <= x < math.inf),
}
_GRIDS = ("alpha_grid", "delta_theta_grid", "delay_grid")
_OPTIONAL = ("n_in", "medium_seed", "output_n", "overlap", "bandwidth_fwhm_nm", "mean_pairs_per_pulse")


def _require(ok: bool, name: str, expected: str, value) -> None:
    if not ok:
        raise ValueError(f"{name}: expected {expected}, got {value!r}")


def _checked(name: str, value):
    """``value`` of field ``name`` in its stored type, once the field's own rule holds.

    Raises ``ValueError`` naming ``name``.  Rules between fields belong
    to :class:`ScenarioConfig`.
    """
    if value is None and name in _OPTIONAL:
        return None
    if name in _INTEGERS:
        return check_integer(name, value, *_INTEGERS[name])
    if name in _NUMBERS:
        expected, test = _NUMBERS[name]
        _require(isinstance(value, numbers.Real) and test(float(value)), name, expected, value)
        return float(value)
    if name in _CHOICES:
        _require(value in _CHOICES[name], name, f"one of {', '.join(_CHOICES[name])}", value)
        return value
    if name in _GRIDS:
        return check_grid(name, value)
    counts = tuple(check_integer(name, count, *DIM_RULE) for count in value)  # segment_counts: each an n_in
    _require(len(counts) > 0, name, "a non-empty list of positive integers", value)
    return counts


@dataclass(frozen=True, eq=False)
class ScenarioConfig:
    """Knobs shared by all scenario runners.

    ``circuit`` selects how the 2x2 circuit is realized: ``"ideal"`` uses
    the exact programmed-splitter form with amplitude ``t`` (no medium),
    ``"shaped"`` programs it into a random medium by wavefront shaping.
    ``counting`` selects noiseless analytic rates or Monte Carlo pulse
    counting with ``pulses_per_point`` pulses per measurement.

    Construction checks every range and choice rule but the output-channel
    ones (:func:`parse_config` applies those) and raises ``ValueError``
    naming the offending field.
    """

    medium_kind: str = "gaussian"
    n_out: int = 4000
    n_in: int | None = None  # defaults to 2 * segments
    medium_seed: int | None = None  # defaults to the master seed
    segments: int = 960
    output_m: int = 0
    output_n: int | None = None  # defaults to output 1, or output 0 when output_m is 1
    circuit: str = "ideal"
    t: float = 0.45
    alpha: float = math.pi
    method: str = "analytic"
    steps: int = 8
    alpha_grid: np.ndarray = field(default_factory=lambda: np.linspace(0.0, math.pi, 9))
    delta_theta_grid: np.ndarray = field(default_factory=lambda: np.linspace(0.0, 2.0 * math.pi, 25))
    delay_grid: np.ndarray = field(default_factory=lambda: np.linspace(-3e-12, 3e-12, 241))
    source: str = "filtered"
    overlap: float | None = None
    bandwidth_fwhm_nm: float | None = None
    mean_pairs_per_pulse: float | None = None
    counting: str = "analytic"
    pulses_per_point: int = 200_000
    seeds: int = 20
    segment_counts: tuple[int, ...] = (64, 256, 960)

    def __post_init__(self) -> None:
        for f in fields(self):
            object.__setattr__(self, f.name, _checked(f.name, getattr(self, f.name)))
        if self.output_n is None:
            object.__setattr__(self, "output_n", 0 if self.output_m == 1 else 1)
        _require(self.method != "stepped" or self.steps >= 3, "steps", "an integer >= 3 with method = stepped",
                 self.steps)
        _require(self.resolved_n_in < DIM_RULE[1], "segments", f"2 * segments, the default n_in, to be a {DIM_RULE[2]}",
                 self.segments)
        if self.medium_kind == "unitary" and self.n_out != self.resolved_n_in:
            raise ValueError(f"unitary media must be square, got n_out = {self.n_out}, n_in = {self.resolved_n_in}")
        if self.resolved_n_in < 2 * self.segments:
            raise ValueError(
                f"n_in = {self.resolved_n_in} cannot host two disjoint modes of {self.segments} segments"
            )

    @property
    def resolved_n_in(self) -> int:
        return self.n_in if self.n_in is not None else 2 * self.segments

    def resolved_medium_seed(self, master_seed: int) -> int:
        return self.medium_seed if self.medium_seed is not None else check_seed(master_seed)


_MEDIUM_KEYS = ("medium_kind", "n_out", "n_in", "segments", "medium_seed")
_SHAPING_KEYS = (*_MEDIUM_KEYS, "output_m", "method")
_SOURCE_KEYS = ("source", "overlap", "bandwidth_fwhm_nm", "mean_pairs_per_pulse")
# mode -> {value: the keys it adds where a subcommand reads the mode}; circuit first, as shaped adds method
_MODES = {
    "circuit": {"shaped": (*_SHAPING_KEYS, "output_n"), "ideal": ("t",)},
    "method": {"stepped": ("steps",)},
    "counting": {"montecarlo": ("pulses_per_point",)},
}

# subcommand -> (runner in ``experiments``, named so that wrappers installed there see every call,
# the keys it reads before its modes add any, summary text from (result, config))
SCENARIOS = {
    # segments is read only as the default n_in and through the rule n_in >= 2 * segments
    "gen-medium": ("run_gen_medium", _MEDIUM_KEYS, lambda r, c: f"generated {r.kind.value} medium {r.n_out}x{r.n_in}"),
    "optimize": ("run_optimize", _SHAPING_KEYS,
                 lambda r, c: f"optimized {c.segments} segments onto output {c.output_m}"),
    "program": ("run_program", (*_SHAPING_KEYS, "output_n", "alpha"), lambda r, c: "programmed alpha = "
                f"{c.alpha:.17g}: alpha_fit = {r.alpha_fit:.17g}, t_fit = {r.t_fit:.17g}"),
    "classical-scan": ("run_classical_scan", ("circuit", "alpha", "delta_theta_grid"),
                       lambda r, c: f"classical scan done; sine phases m = {r.fit_m[2]:.4f}, n = {r.fit_n[2]:.4f} rad"),
    "hom-scan": ("run_hom_scan", ("circuit", "alpha", "delay_grid", *_SOURCE_KEYS),
                 lambda r, c: f"hom scan done; visibility at zero delay = {r.visibility.v:.6f}"),
    "alpha-scan": ("run_alpha_scan", ("circuit", "alpha_grid", "counting", *_SOURCE_KEYS),
                   lambda r, c: f"alpha scan done; v0_fit = {r.v0_fit:.6f} +- {r.v0_std_err:.2g}"),
    "enhancement-study": ("run_enhancement_study", ("n_out", "output_m", "method", "seeds", "segment_counts"),
                          lambda r, c: "enhancement study done; " + ", ".join(
                              f"N={x.n_segments}: {x.mean_enhancement:.1f} (law {x.predicted:.1f})" for x in r)),
    "probabilities": ("run_probabilities", ("t", "alpha"), lambda r, c: "\n".join(
        f"P({label[:2]},{label[2:]}) = {value:.17g}" for label, value in zip(OUTCOME_LABELS, r))),
}


def scenario_keys(subcommand: str, config: ScenarioConfig) -> tuple[str, ...]:
    """The keys that ``subcommand`` reads under ``config``'s modes, in field order.

    These are the keys of its :data:`SCENARIOS` row, the keys that each
    mode among them adds under ``config``'s value of it (a shaped
    ``circuit`` the medium, shaping and output keys, an ideal one ``t``).
    A manifest lists exactly these keys; the output directory is no key,
    but the CLI's ``--out``.  Of ``config`` only the modes are read.
    """
    if subcommand not in SCENARIOS:
        raise ValueError(f"unknown subcommand {subcommand!r}")
    read = set(SCENARIOS[subcommand][1])
    for mode, added in _MODES.items():
        if mode in read:
            read.update(added.get(getattr(config, mode), ()))
    return tuple(f.name for f in fields(ScenarioConfig) if f.name in read)


def _check_outputs(config: ScenarioConfig, keys) -> None:
    """Each output among ``keys`` must be a channel below ``n_out``, and the two must differ where both are."""
    read = [name for name in ("output_m", "output_n") if name in keys]
    if len(read) == 2 and config.output_m == config.output_n:
        raise ValueError("output_m and output_n must differ")
    for name in read:
        value = getattr(config, name)
        _require(value < config.n_out, name, f"a channel index below n_out = {config.n_out}", value)


def _check_run(config: ScenarioConfig, keys) -> None:
    """Among ``keys``: a pair rate above 0 where pairs are counted (``mean_pairs_per_pulse``, an ideal
    ``t``), and the fit grids ``alpha_grid`` and ``delta_theta_grid`` must constrain their fits; a counted
    ``alpha_grid`` needs two points, as the V0 error comes from the residual scatter."""
    if "mean_pairs_per_pulse" in keys:
        rate = config.mean_pairs_per_pulse
        _require(rate != 0.0, "mean_pairs_per_pulse", "a positive number where pairs are counted", rate)
        _require("t" not in keys or config.t > 0.0, "t", "a positive amplitude where pairs are counted", config.t)
    if "alpha_grid" in keys and "pulses_per_point" in keys:
        _require(config.alpha_grid.size >= 2, "alpha_grid", "at least 2 points with counting = montecarlo",
                 config.alpha_grid)
    for name, design in (("alpha_grid", cosine_design), ("delta_theta_grid", sine_design)):
        if name in keys:
            try:
                design(getattr(config, name))
            except ValueError as exc:
                raise ValueError(f"{name}: {exc}") from None


_ANGLE_RE = re.compile(r"([+-]?)((?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:e[+-]?[0-9]+)?)?pi(?:/([0-9]+\.?[0-9]*))?")


def parse_angle(text: str) -> float:
    """Angle in radians from a float literal or a ``pi`` expression."""
    s = text.strip().lower().replace(" ", "")
    try:
        return float(s)
    except ValueError:
        pass
    match = _ANGLE_RE.fullmatch(s)
    if match is None:
        raise ValueError(f"expected an angle (radians or pi expression), got {text!r}")
    sign = -1.0 if match.group(1) == "-" else 1.0
    coefficient = float(match.group(2)) if match.group(2) else 1.0
    divisor = float(match.group(3)) if match.group(3) else 1.0
    if divisor == 0.0:
        raise ValueError(f"division by zero in angle {text!r}")
    return sign * coefficient * math.pi / divisor


def parse_grid(text: str) -> np.ndarray:
    """Grid from ``start:stop:count`` (endpoints included) or a comma list of angles."""
    if ":" not in text:
        return np.array([parse_angle(item) for item in text.split(",")])
    parts = text.strip().split(":")
    if len(parts) != 3:
        raise ValueError(f"expected grid syntax start:stop:count, got {text!r}")
    count = _parse_int(parts[2])
    if count < 1:  # start:stop:count names at least one point
        raise ValueError(f"expected a grid count of at least 1, got {parts[2]!r}")
    with np.errstate(all="ignore"):  # a non-finite end is reported by ScenarioConfig, naming the key
        return np.linspace(parse_angle(parts[0]), parse_angle(parts[1]), count)


def _parse_int(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"expected integer, got {text!r}") from None


def _parse_float(text: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise ValueError(f"expected number, got {text!r}") from None


def _parse_int_list(text: str) -> tuple[int, ...]:
    return tuple(_parse_int(item) for item in text.split(","))


_KEY_PARSERS: dict[str, Callable[[str], object]] = {
    **dict.fromkeys(_INTEGERS, _parse_int),
    **dict.fromkeys(_NUMBERS, _parse_float),
    "alpha": parse_angle,
    **dict.fromkeys(_CHOICES, str.lower),
    **dict.fromkeys(_GRIDS, parse_grid),
    "segment_counts": _parse_int_list,
}

_KNOWN_SECTIONS = {
    "medium", "shaping", "circuit", "outputs", "scan", "source", "counting", "study", "run",
}


def parse_config(text: str, subcommand: str | None = None) -> ScenarioConfig:
    """Parse configuration text into a :class:`ScenarioConfig`.

    Omitted keys take their defaults; unknown keys, unknown sections,
    duplicate keys, type errors and values that break their own key's
    rule raise :class:`ConfigError` with the offending line number.
    Given a ``subcommand``, a key outside its :func:`scenario_keys` raises
    it next, naming the key and the subcommand.  A rule between keys of
    :class:`ScenarioConfig` comes last, naming a key, then the
    output-channel rules for the outputs the subcommand reads (every
    output without a subcommand), and a subcommand's pair-rate and
    fit-grid rules.
    """
    values: dict[str, object] = {}
    lines: dict[str, int] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("["):
            if not line.endswith("]"):
                raise ConfigError(f"line {lineno}: malformed section header {raw.strip()!r}")
            section = line[1:-1].strip()
            if section not in _KNOWN_SECTIONS:
                raise ConfigError(f"line {lineno}: unknown section {section!r}")
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw.strip()!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in _KEY_PARSERS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in values:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        try:
            parsed = _KEY_PARSERS[key](value)
        except ValueError as exc:
            raise ConfigError(f"line {lineno}: key {key!r}: {exc}") from exc
        try:
            values[key] = _checked(key, parsed)
        except ValueError as exc:
            raise ConfigError(f"line {lineno}: {exc}") from exc
        lines[key] = lineno
    readable = tuple(f.name for f in fields(ScenarioConfig))  # no subcommand: a config for every reader
    if subcommand is not None:
        # the modes alone pick the keys; every mode value has passed its rule
        modes = SimpleNamespace(**{mode: values.get(mode, getattr(ScenarioConfig, mode)) for mode in _MODES})
        readable = scenario_keys(subcommand, modes)
        under = ", ".join(f"{mode} = {getattr(modes, mode)}" for mode in _MODES if mode in readable)
        for key, lineno in lines.items():
            if key not in readable:
                raise ConfigError(f"line {lineno}: {subcommand} does not read key {key!r}"
                                  + (f" with {under}" if under else ""))
    try:
        config = ScenarioConfig(**values)
        _check_outputs(config, readable)
        if subcommand is not None:
            _check_run(config, readable)
    except ValueError as exc:
        raise ConfigError(f"invalid configuration: {exc}") from exc
    return config


def format_config(config: ScenarioConfig, keys=None) -> str:
    """Config text that :func:`parse_config` reads back to ``config``.

    Every field that is not ``None`` is written in field order, or only
    those among ``keys``, a subcommand's :func:`scenario_keys`; floats
    carry 17 significant digits, and a grid is written as
    ``start:stop:count`` when that text parses back to the same grid bit
    for bit, else as a comma list, so values survive the round trip
    exactly.
    """
    lines = []
    for f in fields(config):
        value = getattr(config, f.name) if keys is None or f.name in keys else None
        if value is not None:
            lines.append(f"{f.name} = {_format_value(value)}\n")
    return "".join(lines)


def _format_value(value) -> str:
    if isinstance(value, np.ndarray):
        compact = f"{value[0]:.17g}:{value[-1]:.17g}:{value.size}"
        if parse_grid(compact).tobytes() == value.tobytes():  # bytes, so a -0.0 start is kept
            return compact
    if isinstance(value, (np.ndarray, tuple)):
        return ",".join(_format_value(item) for item in value)
    return f"{value:.17g}" if isinstance(value, float) else str(value)
