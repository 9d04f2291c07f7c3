"""Flat key/value configuration files and reproducibility manifests.

Config format: one `key = value` per line, `#` comments, optional
`[section]` headers (cosmetic grouping; keys are global and must be
unique).  Multi-valued axes are comma lists, e.g. `ebn0_db = 4, 6, 8`.
Unknown keys are rejected so typos fail loudly.
"""

import time
from dataclasses import MISSING, dataclass, fields, replace
from typing import get_args, get_origin

from . import __version__, records
from .berlab import SweepSpec
from .capacity import CapacityParams
from .exceptions import ConfigError, ExportError, ParameterError, check_real
from .modem import ModemConfig
from .transforms import TransformKind

# A sweep axis holds the values of one grid coordinate; its config key is the
# singular.  The alpha and kind axes also set those base ModemConfig fields.
_AXIS_KEYS = {
    "alphas": "alpha",
    "ebn0_dbs": "ebn0_db",
    "iteration_counts": "iterations",
    "kinds": "kind",
}

# Defaults that differ from the dataclasses on purpose: a config file describes
# a link without pilot rows, swept over five Eb/N0 points, and the capacity
# flags normalise the powers and bandwidth to 1.
_SWEEP_DEFAULTS = {
    "training_symbols": 0,
    "sync_symbols": 0,
    "ebn0_db": (4.0, 6.0, 8.0, 10.0, 12.0),
}
_CAPACITY_DEFAULTS = {"bandwidth_hz": 1.0, "signal_power": 1.0, "noise_power": 1.0}

# Sweep key -> dataclass field: the ModemConfig fields the axes leave free,
# then the SweepSpec fields but the base config.
_MODEM_FIELDS = {f.name: f for f in fields(ModemConfig) if f.name not in _AXIS_KEYS.values()}
_SPEC_FIELDS = {
    _AXIS_KEYS.get(f.name, f.name): f for f in fields(SweepSpec) if f.type is not ModemConfig
}
_SWEEP_FIELDS = {**_MODEM_FIELDS, **_SPEC_FIELDS}


def read_key_values(path):
    """Parse the raw file into {key: (value_string, line_number)}."""
    try:
        with records.opened(path) as fh:
            lines = fh.readlines()
    except ExportError as exc:
        raise ConfigError(str(exc)) from exc
    out = {}
    for lineno, raw in enumerate(lines, 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            continue  # section headers are grouping only
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if not key:
            raise ConfigError(f"{path}:{lineno}: empty key")
        if key in out:
            raise ConfigError(
                f"{path}: duplicate key {key!r} on lines {out[key][1]} and {lineno}"
            )
        out[key] = (value, lineno)
    return out


def transform_kind(value, where="kind"):
    """The TransformKind named `value`, or a ConfigError naming `where`."""
    try:
        return TransformKind(value)
    except ValueError:
        names = " or ".join(k.value for k in TransformKind)
        raise ConfigError(f"{where} must be {names}, got {value!r}") from None


def _convert(path, key, value, lineno, kind):
    """Parse one value as its field's type: int, float, TransformKind, or a
    tuple of one of them written as a comma list."""
    def scalar(text, caster):
        if caster is TransformKind:
            return transform_kind(text, f"{path}:{lineno}: {key}")
        if caster is int:
            try:
                return int(text)  # exact for integer literals of any size
            except ValueError:
                pass
        try:
            value = float(text)
        except ValueError:
            raise ConfigError(f"{path}:{lineno}: cannot parse {key} value {text!r}")
        if caster is float:
            return value
        # Integral float spellings such as 1e6 are accepted; 16.7 is not truncated.
        if not value.is_integer():
            raise ConfigError(f"{path}:{lineno}: {key} must be an integer, got {text!r}")
        return int(value)

    if get_origin(kind) is not tuple:
        return scalar(value, kind)
    items = [v.strip() for v in value.split(",")]
    if not any(items):
        raise ConfigError(f"{path}:{lineno}: {key} list is empty")
    if not all(items):
        raise ConfigError(f"{path}:{lineno}: {key} list has an empty item")
    return tuple(scalar(v, get_args(kind)[0]) for v in items)


def _sweep_spec(values, source):
    """The SweepSpec of a value for every sweep key; a value that it refuses is
    a ConfigError naming `source` and the key."""
    missing = sorted(_SWEEP_FIELDS.keys() - values.keys())
    if missing:
        raise ConfigError(f"{source}: missing required key(s) {missing}")
    try:
        spec = SweepSpec(
            config=ModemConfig(**{key: values[key] for key in _MODEM_FIELDS}),
            **{f.name: values[key] for key, f in _SPEC_FIELDS.items()},
        )
    except ParameterError as exc:  # its message starts with the field
        field, _, rule = str(exc).partition(" ")
        raise ConfigError(f"{source}: {_AXIS_KEYS.get(field, field)} {rule}") from None
    return replace(spec, config=replace(spec.config, alpha=spec.alphas[0], kind=spec.kinds[0]))


def sweep_spec_from_file(path, seed_override=None):
    raw = read_key_values(path)
    unknown = sorted(raw.keys() - _SWEEP_FIELDS.keys())
    if unknown:
        raise ConfigError(f"{path}: unknown key(s) {unknown}; known keys: {sorted(_SWEEP_FIELDS)}")
    values = {key: f.default for key, f in _SWEEP_FIELDS.items() if f.default is not MISSING}
    values.update(_SWEEP_DEFAULTS)
    values.update({key: _convert(path, key, value, lineno, _SWEEP_FIELDS[key].type)
                   for key, (value, lineno) in raw.items()})
    spec = _sweep_spec(values, path)
    return spec if seed_override is None else replace(spec, seed=seed_override)


def sweep_spec_to_dict(spec):
    """The spec as JSON values under its config keys, in schema order."""
    def plain(value):
        if isinstance(value, tuple):
            return [plain(v) for v in value]
        return value.value if isinstance(value, TransformKind) else value

    return {
        key: plain(getattr(spec.config if key in _MODEM_FIELDS else spec, f.name))
        for key, f in _SWEEP_FIELDS.items()
    }


def sweep_spec_from_json_dict(values, source="sweep dict"):
    """Inverse of `sweep_spec_to_dict`; an unknown key, or a value of the
    wrong JSON type, raises a ConfigError naming `source` (such as the
    manifest the values come from) and its key."""
    def typed(key, value, kind):
        if get_origin(kind) is tuple:
            if not isinstance(value, list):
                raise ConfigError(f"{source}: {key} must be a list, got {value!r}")
            return tuple(typed(key, v, get_args(kind)[0]) for v in value)
        if kind is TransformKind:
            return transform_kind(value, f"{source}: {key}")
        if not isinstance(value, int if kind is int else (int, float)) or isinstance(value, bool):
            raise ConfigError(f"{source}: bad {key} value {value!r}")
        return value

    unknown = sorted(values.keys() - _SWEEP_FIELDS.keys())
    if unknown:
        raise ConfigError(f"{source}: unknown key(s) {unknown}")
    return _sweep_spec(
        {key: typed(key, values[key], f.type)
         for key, f in _SWEEP_FIELDS.items() if key in values},
        source,
    )


def capacity_params(snr_db=None, **values):
    """CapacityParams from the capacity flags: `snr_db` sets the signal power
    in dB over a noise power of 1, and what is not given takes the defaults."""
    if snr_db is not None:
        check_real(snr_db, "snr_db", high=3000, closed="(]")  # keeps 10 ** (snr_db / 10) finite
        values.update(signal_power=10.0 ** (snr_db / 10.0), noise_power=1.0)
    return CapacityParams(**{**_CAPACITY_DEFAULTS, **values})


# ---------------------------------------------------------------------------
# Run manifests

@dataclass(frozen=True)
class RunManifest:
    """Everything needed to regenerate a result file bit-identically."""

    subcommand: str
    resolved: dict  # fully resolved parameters (defaults applied)
    seed: int
    outputs: list   # [{"path": ..., "format": ...}]
    tool_version: str = __version__
    created_utc: str = ""


def make_manifest(subcommand, resolved, seed, outputs):
    return RunManifest(
        subcommand=subcommand,
        resolved=resolved,
        seed=seed,
        outputs=outputs,
        created_utc=time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    )


def manifest_path_for(output_path):
    return f"{output_path}.manifest.json"


def load_manifest(path):
    try:
        payload = records.read_json(path)
    except ExportError as exc:
        raise ConfigError(str(exc)) from exc
    if not isinstance(payload, dict):
        raise ConfigError(f"{path}: a manifest must be a JSON object")
    known = fields(RunManifest)
    unknown = sorted(set(payload) - {f.name for f in known})
    if unknown:
        raise ConfigError(f"{path}: unknown manifest field(s) {unknown}")
    for f in known:
        if f.name not in payload and f.default is MISSING:
            raise ConfigError(f"{path}: missing manifest field {f.name!r}")
        if f.name in payload and not isinstance(payload[f.name], f.type):
            raise ConfigError(
                f"{path}: manifest field {f.name!r} must be a JSON {f.type.__name__}"
            )
    # A path that is not a string would reach open() as a file descriptor or fail raw.
    if not all(isinstance(o, dict) and isinstance(o.get("path"), str)
               and isinstance(o.get("format"), str) for o in payload["outputs"]):
        raise ConfigError(f"{path}: each entry of manifest field 'outputs' needs "
                          "'path' and 'format' strings")
    # Checked here, so a replay never runs before its output is refused.
    for o in payload["outputs"]:
        try:
            records.check_format(o["format"])
        except ParameterError as exc:
            raise ConfigError(f"{path}: manifest field 'outputs': {exc}") from None
    return RunManifest(**payload)
