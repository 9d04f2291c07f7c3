"""Flat key/value configuration files and reproducibility manifests.

Config format: one `key = value` per line, `#` comments, optional
`[section]` headers (cosmetic grouping; keys are global and must be
unique).  Multi-valued axes are comma lists, e.g. `ebn0_db = 4, 6, 8`.
Unknown keys are rejected so typos fail loudly.
"""

import json
import time
from dataclasses import MISSING, dataclass, fields

from . import __version__
from .berlab import SweepSpec
from .capacity import CapacityParams
from .exceptions import ConfigError
from .modem import ModemConfig
from .transforms import TransformKind

SWEEP_KEYS = {
    "n": int,
    "pam_order": int,
    "cp_len": int,
    "data_symbols_per_frame": int,
    "training_symbols": int,
    "sync_symbols": int,
    "sample_rate": float,
    "alpha": "float_list",
    "ebn0_db": "float_list",
    "iterations": "int_list",
    "kind": "kind_list",
    "max_bits": int,
    "min_errors": int,
    "frames_per_batch": int,
    "seed": int,
}

CAPACITY_KEYS = {
    "bandwidth_hz": float,
    "signal_power": float,
    "noise_power": float,
    "snr_db": float,
    "ici_power": float,
    "alpha": float,
    "symbol_duration": float,
}

SWEEP_DEFAULTS = {
    "n": 256,
    "pam_order": 2,
    "cp_len": 0,
    "data_symbols_per_frame": 128,
    "training_symbols": 0,
    "sync_symbols": 0,
    "sample_rate": 10e9,
    "ebn0_db": (4.0, 6.0, 8.0, 10.0, 12.0),
    "iterations": (20,),
    "kind": (TransformKind.FRCT,),
    "max_bits": 1_000_000,
    "min_errors": 100,
    "frames_per_batch": 4,
    "seed": 0,
}


def read_key_values(path):
    """Parse the raw file into {key: (value_string, line_number)}."""
    try:
        with open(path) as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise ConfigError(f"{path}: {exc}")
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


def _convert(path, key, value, lineno, kind):
    def scalar(text, caster):
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

    if kind is int or kind is float:
        return scalar(value, kind)
    items = [v.strip() for v in value.split(",") if v.strip()]
    if not items:
        raise ConfigError(f"{path}:{lineno}: {key} list is empty")
    if kind == "float_list":
        return tuple(scalar(v, float) for v in items)
    if kind == "int_list":
        return tuple(scalar(v, int) for v in items)
    if kind == "kind_list":
        kinds = []
        for v in items:
            try:
                kinds.append(TransformKind(v))
            except ValueError:
                raise ConfigError(
                    f"{path}:{lineno}: kind must be FrCT or FrHT, got {v!r}"
                )
        return tuple(kinds)
    raise AssertionError(kind)


def _typed_values(path, raw, schema):
    unknown = set(raw) - set(schema)
    if unknown:
        raise ConfigError(
            f"{path}: unknown key(s) {sorted(unknown)}; known keys: {sorted(schema)}"
        )
    return {
        key: _convert(path, key, value, lineno, schema[key])
        for key, (value, lineno) in raw.items()
    }


def sweep_spec_from_file(path, seed_override=None):
    values = dict(SWEEP_DEFAULTS)
    values.update(_typed_values(path, read_key_values(path), SWEEP_KEYS))
    if "alpha" not in values:
        raise ConfigError(f"{path}: missing required key 'alpha'")
    if seed_override is not None:
        values["seed"] = seed_override
    return sweep_spec_from_dict(values)


def sweep_spec_from_dict(values):
    config = ModemConfig(
        n=values["n"],
        alpha=values["alpha"][0],
        kind=values["kind"][0],
        pam_order=values["pam_order"],
        cp_len=values["cp_len"],
        data_symbols_per_frame=values["data_symbols_per_frame"],
        training_symbols=values["training_symbols"],
        sync_symbols=values["sync_symbols"],
        sample_rate=values["sample_rate"],
    )
    return SweepSpec(
        config=config,
        alphas=tuple(values["alpha"]),
        ebn0_dbs=tuple(values["ebn0_db"]),
        iteration_counts=tuple(values["iterations"]),
        kinds=tuple(values["kind"]),
        max_bits=values["max_bits"],
        min_errors=values["min_errors"],
        frames_per_batch=values["frames_per_batch"],
        seed=values["seed"],
    )


def sweep_spec_to_dict(spec):
    return {
        "n": spec.config.n,
        "pam_order": spec.config.pam_order,
        "cp_len": spec.config.cp_len,
        "data_symbols_per_frame": spec.config.data_symbols_per_frame,
        "training_symbols": spec.config.training_symbols,
        "sync_symbols": spec.config.sync_symbols,
        "sample_rate": spec.config.sample_rate,
        "alpha": list(spec.alphas),
        "ebn0_db": list(spec.ebn0_dbs),
        "iterations": list(spec.iteration_counts),
        "kind": [k.value for k in spec.kinds],
        "max_bits": spec.max_bits,
        "min_errors": spec.min_errors,
        "frames_per_batch": spec.frames_per_batch,
        "seed": spec.seed,
    }


def sweep_spec_from_json_dict(values):
    values = dict(values)
    values["alpha"] = tuple(values["alpha"])
    values["ebn0_db"] = tuple(values["ebn0_db"])
    values["iterations"] = tuple(values["iterations"])
    values["kind"] = tuple(TransformKind(k) for k in values["kind"])
    return sweep_spec_from_dict(values)


def capacity_params_from_file(path):
    values = _typed_values(path, read_key_values(path), CAPACITY_KEYS)
    return capacity_params_from_dict(values)


def capacity_params_from_dict(values):
    values = dict(values)
    if "snr_db" in values:
        if "signal_power" in values or "noise_power" in values:
            raise ConfigError("give either snr_db or signal_power/noise_power, not both")
        values["signal_power"] = 10.0 ** (values.pop("snr_db") / 10.0)
        values["noise_power"] = 1.0
    values.setdefault("signal_power", 1.0)
    values.setdefault("noise_power", 1.0)
    return CapacityParams(
        bandwidth_hz=values.get("bandwidth_hz", 1.0),
        signal_power=values["signal_power"],
        noise_power=values["noise_power"],
        ici_power=values.get("ici_power", 0.0),
        alpha=values.get("alpha", 1.0),
        symbol_duration=values.get("symbol_duration", 1.0),
    )


def parse_config(path, target="sweep"):
    """Load and validate a config file as a SweepSpec or CapacityParams."""
    if target == "sweep":
        return sweep_spec_from_file(path)
    if target == "capacity":
        return capacity_params_from_file(path)
    raise ConfigError(f"target must be 'sweep' or 'capacity', got {target!r}")


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
        with open(path) as fh:
            payload = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"{path}: {exc}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON ({exc})")
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
    if not all(isinstance(o, dict) and {"path", "format"} <= o.keys()
               for o in payload["outputs"]):
        raise ConfigError(f"{path}: each entry of manifest field 'outputs' needs "
                          "'path' and 'format'")
    return RunManifest(**payload)
