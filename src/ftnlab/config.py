"""Sweep files and reproducibility manifests, both JSON objects.

A sweep file holds a value for every sweep key, exactly as
`sweep_spec_to_dict` writes it and a sweep manifest records it under
`resolved`.
"""

import time
from dataclasses import MISSING, dataclass, fields, replace

from . import __version__, records
from .berlab import SweepSpec
from .capacity import CapacityParams
from .exceptions import ConfigError, ExportError, ParameterError, check_keys, check_real
from .modem import ModemConfig
from .transforms import TransformKind

# A sweep axis holds the values of one grid coordinate; its sweep key is the
# singular.  The alpha and kind axes also set those base ModemConfig fields.
_AXIS_KEYS = {
    "alphas": "alpha",
    "ebn0_dbs": "ebn0_db",
    "iteration_counts": "iterations",
    "kinds": "kind",
}

# The capacity flags normalise the powers and bandwidth to 1.
_CAPACITY_DEFAULTS = {"bandwidth_hz": 1.0, "signal_power": 1.0, "noise_power": 1.0}

# Sweep key -> dataclass field: the ModemConfig fields the axes leave free,
# then the SweepSpec fields but the base config.
_MODEM_FIELDS = {f.name: f for f in fields(ModemConfig) if f.name not in _AXIS_KEYS.values()}
_SPEC_FIELDS = {
    _AXIS_KEYS.get(f.name, f.name): f for f in fields(SweepSpec) if f.type is not ModemConfig
}
_SWEEP_FIELDS = {**_MODEM_FIELDS, **_SPEC_FIELDS}


def transform_kind(value, where="kind"):
    """The TransformKind named `value`, or a ConfigError naming `where`."""
    try:
        return TransformKind(value)
    except ValueError:
        names = " or ".join(k.value for k in TransformKind)
        raise ConfigError(f"{where} must be {names}, got {value!r}") from None


def sweep_spec_to_dict(spec):
    """The spec as JSON values under its sweep keys, in schema order."""
    def plain(value):
        if isinstance(value, tuple):
            return [plain(v) for v in value]
        return value.value if isinstance(value, TransformKind) else value

    return {
        key: plain(getattr(spec.config if key in _MODEM_FIELDS else spec, f.name))
        for key, f in _SWEEP_FIELDS.items()
    }


def sweep_spec_from_json_dict(values, source="sweep dict"):
    """Inverse of `sweep_spec_to_dict`; an unknown or missing key, or a value
    that `SweepSpec` or `ModemConfig` refuses, raises a ConfigError naming
    `source` (the sweep file or manifest the values come from) and the key."""
    check_keys(source, values, _SWEEP_FIELDS)
    values = dict(values)
    for key in _AXIS_KEYS.values():  # JSON lists become the axes' tuples
        if isinstance(values[key], list):
            values[key] = tuple(transform_kind(v, f"{source}: {key}") if key == "kind" else v
                                for v in values[key])
    try:
        spec = SweepSpec(
            config=ModemConfig(**{key: values[key] for key in _MODEM_FIELDS}),
            **{f.name: values[key] for key, f in _SPEC_FIELDS.items()},
        )
    except ParameterError as exc:  # its message starts with the field
        field, _, rule = str(exc).partition(" ")
        raise ConfigError(f"{source}: {_AXIS_KEYS.get(field, field)} {rule}") from None
    return replace(spec, config=replace(spec.config, alpha=spec.alphas[0], kind=spec.kinds[0]))


def sweep_spec_from_file(path):
    """The SweepSpec of the sweep file at `path`, which every refusal names."""
    return sweep_spec_from_json_dict(_json_object(path, "sweep file"), path)


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


def _json_object(path, what):
    """The JSON object in the file at `path`: a file that cannot be read, or
    holds no JSON object, is a ConfigError naming `path` and `what` it is."""
    try:
        payload = records.read_json(path)
    except ExportError as exc:
        raise ConfigError(str(exc)) from exc
    if not isinstance(payload, dict):
        raise ConfigError(f"{path}: a {what} must be a JSON object")
    return payload


def load_manifest(path):
    payload = _json_object(path, "manifest")
    known = fields(RunManifest)
    check_keys(path, payload, [f.name for f in known if f.default is MISSING],
               [f.name for f in known])
    for f in known:
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
