"""Line-oriented run configuration: `section.key = value` documents.

Every key is declared in a schema with its type, default and range
check; unknown keys are rejected and all validation errors are reported
together.  Parsing and serialization round-trip exactly.
"""

from dataclasses import dataclass

import numpy as np

from .basis import OperatorSpec
from .ergodic import BUILTIN_FUNCTIONALS
from .model import PHI_KINDS, PSI_KINDS, Nonlinearity
from .noise import PROFILES, NoiseSpec
from .solver import INITIAL_PRESETS, SCHEMES, SimConfig, whole_steps


class ConfigError(ValueError):
    def __init__(self, errors):
        self.errors = list(errors)
        super().__init__("; ".join(self.errors))


def _parse_bool(s):
    if s.lower() in ("true", "yes", "1"):
        return True
    if s.lower() in ("false", "no", "0"):
        return False
    raise ValueError(f"not a boolean: {s!r}")


def _parse_float_list(s):
    return tuple(float(x) for x in s.split(",") if x.strip())


def _parse_str_list(s):
    return tuple(x.strip() for x in s.split(",") if x.strip())


def _parse_initials(s):
    labels = _parse_str_list(s)
    for label in labels:
        parse_initial(label)
    return labels


def _fmt(value):
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, tuple):
        return ",".join(_fmt(v) for v in value)
    if isinstance(value, float):
        return repr(value)
    return str(value)


class _Key:
    def __init__(self, parse, default, check=None, message=None):
        self.parse = parse
        self.default = default
        self.check = check
        self.message = message

    def validate(self, name, value, errors):
        if self.check is not None and not self.check(value):
            errors.append(f"{name}: {self.message or 'out of range'}")


def _choice(default, choices, message):
    return _Key(str, default, lambda v: v in choices, message)


# callable Phi is library-only: a config document has no way to spell it
_CONFIG_PHI_KINDS = tuple(k for k in PHI_KINDS if k != "custom")

SCHEMA = {
    "operator.n_modes": _Key(int, 64, lambda v: v >= 1, "must be positive"),
    "operator.grid_size": _Key(int, 512, lambda v: v >= 4, "must be at least 4"),
    "model.r": _Key(float, 3.0, lambda v: v > 1, "r must exceed 1"),
    "model.psi": _choice("odd_power", PSI_KINDS, "unknown psi kind"),
    "model.alpha": _Key(float, 0.0, np.isfinite, "must be finite"),
    "model.gamma": _Key(float, 1.0, np.isfinite, "must be finite"),
    "model.phi": _choice("zero", _CONFIG_PHI_KINDS, "unknown phi kind"),
    "model.beta": _Key(float, 0.0, np.isfinite, "must be finite"),
    "noise.profile": _choice("zero", PROFILES, "unknown noise profile"),
    "noise.c": _Key(float, 0.0, lambda v: v >= 0, "must be nonnegative"),
    "noise.a": _Key(float, 0.0, lambda v: v >= 0, "must be nonnegative"),
    "noise.q": _Key(
        _parse_float_list, (), lambda v: np.all(np.isfinite(v)), "must be finite"
    ),
    "noise.seed": _Key(int, 0, lambda v: 0 <= v < 2**64, "must fit in 64 bits"),
    "sim.dt": _Key(float, 1e-4, lambda v: v > 0, "must be positive"),
    "sim.t_end": _Key(float, 1.0, lambda v: v > 0, "must be positive"),
    "sim.scheme": _choice("tamed_em", SCHEMES, "unknown scheme"),
    "sim.record_every": _Key(int, 100, lambda v: v >= 1, "must be positive"),
    "sim.initial": _choice("e1", INITIAL_PRESETS, "unknown preset"),
    "sim.initial_scale": _Key(float, 1.0, np.isfinite, "must be finite"),
    "sim.initial_y": _choice("e1", INITIAL_PRESETS, "unknown preset"),
    "sim.initial_y_scale": _Key(float, -1.0, np.isfinite, "must be finite"),
    "sim.gate_override": _Key(_parse_bool, False),
    "ensemble.n_traj": _Key(int, 100, lambda v: v >= 2, "need at least 2"),
    "ensemble.burn_in": _Key(float, 1.0, lambda v: v >= 0, "must be nonnegative"),
    "ensemble.sample_times": _Key(
        _parse_float_list, (), lambda v: np.all(np.diff(v) > 0), "must be increasing"
    ),
    "ensemble.fit_window": _Key(
        _parse_float_list,
        (),
        lambda v: len(v) in (0, 2) and (len(v) < 2 or 0 < v[0] < v[1]),
        "need two increasing positive times",
    ),
    "ensemble.initials": _Key(
        _parse_initials, ("zero", "e1"), lambda v: len(v) >= 2, "need at least two"
    ),
    "ensemble.functionals": _Key(
        _parse_str_list, ("tanh_h_norm",),
        lambda v: len(v) > 0 and set(v) <= set(BUILTIN_FUNCTIONALS),
        "need one or more known functionals",
    ),
}


@dataclass(frozen=True)
class RunConfig:
    values: tuple  # sorted (key, value) pairs
    applied_defaults: tuple = ()

    def __getitem__(self, key):
        return dict(self.values)[key]

    def with_value(self, key, value):
        d = dict(self.values)
        if key not in SCHEMA:
            raise KeyError(key)
        d[key] = value
        return RunConfig(values=tuple(sorted(d.items())), applied_defaults=self.applied_defaults)


def parse_config(text):
    """Parse a config document; every offending line/key is reported."""
    raw = {}
    errors = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            errors.append(f"line {lineno}: expected 'section.key = value'")
            continue
        key, _, value = stripped.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in SCHEMA:
            errors.append(f"line {lineno}: unknown key {key!r}")
            continue
        try:
            raw[key] = SCHEMA[key].parse(value)
        except ValueError as exc:
            errors.append(f"line {lineno}: {key}: {exc}")
    values = {}
    defaults = []
    for key, spec in SCHEMA.items():
        if key in raw:
            values[key] = raw[key]
        else:
            values[key] = spec.default
            defaults.append(key)
    for key, spec in SCHEMA.items():
        if key in raw:
            spec.validate(key, values[key], errors)
    if not errors:
        errors = _cross_key_errors(values)
    if errors:
        raise ConfigError(errors)
    return RunConfig(
        values=tuple(sorted(values.items())), applied_defaults=tuple(sorted(defaults))
    )


def _cross_key_errors(v):
    """Checks that span keys; meaningful only once each key is valid alone."""
    errors = []
    n, grid, r = v["operator.n_modes"], v["operator.grid_size"], v["model.r"]
    if grid < n:
        errors.append("operator.grid_size: must be at least operator.n_modes")
    elif not OperatorSpec(n_modes=n, grid_size=grid).dealiasing_ok(r):
        errors.append(
            f"operator.grid_size: too coarse for model.r, need at least {2 * (r + 1) * n:g}"
        )
    if v["model.psi"] == "odd_power" and v["model.alpha"] != 0.0:
        errors.append("model.alpha: odd_power takes no linear coefficient")
    dt, t_end = v["sim.dt"], v["sim.t_end"]
    if dt > t_end:
        errors.append("sim.dt: must not exceed sim.t_end")
    elif not whole_steps(t_end, dt):
        errors.append("sim.t_end: must be a whole number of sim.dt steps")
    if any(not 0 < t <= t_end for t in v["ensemble.sample_times"]):
        errors.append("ensemble.sample_times: must lie in (0, sim.t_end]")
    return errors


def serialize_config(config):
    """Deterministic text form; parse_config inverts it exactly."""
    lines = [f"{key} = {_fmt(value)}" for key, value in config.values]
    return "\n".join(lines) + "\n"


def parse_initial(label):
    """Parse an initial-data label like 'e1', 'zero' or '10*e1'."""
    scale, star, preset = label.rpartition("*")
    preset = preset.strip()
    if preset not in INITIAL_PRESETS:
        raise ValueError(f"unknown preset in {label!r}")
    return preset, float(scale) if star else 1.0


def build_operator(config):
    return OperatorSpec(
        n_modes=config["operator.n_modes"], grid_size=config["operator.grid_size"]
    )


def build_model(config):
    return Nonlinearity(
        r=config["model.r"],
        psi_kind=config["model.psi"],
        alpha=config["model.alpha"],
        gamma=config["model.gamma"],
        phi_kind=config["model.phi"],
        beta=config["model.beta"],
    )


def build_noise(config):
    return NoiseSpec(
        profile=config["noise.profile"],
        c=config["noise.c"],
        a=config["noise.a"],
        q=np.asarray(config["noise.q"], dtype=float)
        if config["noise.profile"] == "explicit_diagonal"
        else None,
        master_seed=config["noise.seed"],
    )


def build_sim(config):
    return SimConfig(
        operator=build_operator(config),
        model=build_model(config),
        noise=build_noise(config),
        dt=config["sim.dt"],
        t_end=config["sim.t_end"],
        scheme=config["sim.scheme"],
        record_every=config["sim.record_every"],
        initial=config["sim.initial"],
        initial_scale=config["sim.initial_scale"],
        gate_override=config["sim.gate_override"],
    )


def default_sample_times(config):
    """16 geometric sample times from max(10*dt, t_end/50) to t_end."""
    t_end = config["sim.t_end"]
    dt = config["sim.dt"]
    if t_end <= 10 * dt:
        raise ConfigError([
            f"sim.t_end: {t_end:g} is not past 10*sim.dt = {10 * dt:g}, the floor "
            "of the default ensemble.sample_times; lengthen sim.t_end or set "
            "ensemble.sample_times"
        ])
    lo = max(10 * dt, 0.02 * t_end)
    return tuple(np.geomspace(lo, t_end, 16))
