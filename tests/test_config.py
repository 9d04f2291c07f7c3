"""Sweep files, validation diagnostics, and run manifests."""

import json
import math
import re
from dataclasses import asdict
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from ftnlab.cli import main
from ftnlab.config import (
    RunManifest,
    capacity_params,
    load_manifest,
    make_manifest,
    manifest_path_for,
    sweep_spec_from_file,
    sweep_spec_from_json_dict,
    sweep_spec_to_dict,
)
from ftnlab import config, records
from ftnlab.berlab import SweepSpec
from ftnlab.capacity import CapacityParams
from ftnlab.exceptions import ConfigError, ParameterError
from ftnlab.modem import ModemConfig
from ftnlab.transforms import TransformKind

# A sweep that stops at its first batch: one point, 64 bits, at 0 dB.
_SWEEP = {"n": 16, "cp_len": 0, "data_symbols_per_frame": 4, "training_symbols": 0,
          "sync_symbols": 0, "alpha": [0.9], "ebn0_db": [0.0], "iterations": [2],
          "kind": ["FrCT"], "max_bits": 1_000_000, "min_errors": 1, "frames_per_batch": 1,
          "seed": 0}


def _sweep_file(tmp_path, **edits):
    """The path of a sweep file of `_SWEEP` with `edits`; a value of None
    drops its key."""
    values = {key: value for key, value in {**_SWEEP, **edits}.items() if value is not None}
    path = tmp_path / "sweep.json"
    path.write_text(json.dumps(values))
    return str(path)


# Sweep-file values that SweepSpec or ModemConfig refuse, with the refusal
# after the file's name.
_BAD_VALUES = [
    ("max_bits", "many", "max_bits must be an integer >= 100000, got 'many'"),
    ("n", 16.7, "n must be an integer >= 2, got 16.7"),
    ("n", 16.0, "n must be an integer >= 2, got 16.0"),
    ("max_bits", math.inf, "max_bits must be an integer >= 100000, got inf"),
    ("iterations", [10, 20.5], "iterations must be an integer >= 0, got 20.5"),
    ("seed", True, "seed must be an integer >= 0, got True"),
    ("alpha", 0.9, "alpha must be a nonempty tuple, got 0.9"),
    ("ebn0_db", [], "ebn0_db must be a nonempty tuple, got ()"),
    ("frames_per_batch", 0, "frames_per_batch must be an integer >= 1, got 0"),
]
_BAD_VALUE_IDS = ["max_bits-many", "n-16.7", "n-16.0", "max_bits-inf", "iterations-20.5",
                  "seed-True", "alpha-0.9", "ebn0_db-empty", "frames_per_batch-0"]
_REPEATED_VALUES = [
    ("alpha", [0.9, 0.8, 0.9], "alpha has a repeated value 0.9"),
    ("ebn0_db", [4, 4.0], "ebn0_db has a repeated value 4.0"),
    ("iterations", [20, 10, 20], "iterations has a repeated value 20"),
    ("kind", ["FrHT", "FrHT"], "kind has a repeated value FrHT"),
]


class TestSweepSpec:
    @pytest.mark.parametrize("key", sorted(config._SWEEP_FIELDS))
    def test_every_key_required(self, tmp_path, key):
        # A sweep file has no defaults: it names every key, as a manifest does.
        path = _sweep_file(tmp_path, **{key: None})
        with pytest.raises(ConfigError,
                           match=f"^{re.escape(f'{path}: missing required key(s) {[key]}')}$"):
            sweep_spec_from_file(path)

    @pytest.mark.parametrize("key", ["alhpa_typo", "pam_order", "sample_rate"])
    def test_unknown_key_rejected(self, tmp_path, key):
        # A typo is no key; nor are a PAM order or a sample rate, as the link is
        # 2-PAM end to end at a fixed sample rate.
        path = _sweep_file(tmp_path, **{key: 2})
        with pytest.raises(ConfigError, match=f"^{re.escape(f'{path}: unknown key(s) {[key]}')}$"):
            sweep_spec_from_file(path)

    @pytest.mark.parametrize("key,value,message", _BAD_VALUES, ids=_BAD_VALUE_IDS)
    def test_bad_value_names_file_and_key(self, tmp_path, key, value, message):
        path = _sweep_file(tmp_path, **{key: value})
        with pytest.raises(ConfigError, match=f"^{re.escape(f'{path}: {message}')}$"):
            sweep_spec_from_file(path)

    @pytest.mark.parametrize("key,value,message", _REPEATED_VALUES,
                             ids=["alpha", "ebn0_db", "iterations", "kind"])
    def test_repeated_axis_value_rejected(self, tmp_path, key, value, message):
        # Two results for one grid point: the file, the key and the value are named.
        path = _sweep_file(tmp_path, **{key: value})
        with pytest.raises(ConfigError, match=f"^{re.escape(f'{path}: {message}')}$"):
            sweep_spec_from_file(path)

    @pytest.mark.parametrize(
        "key,value", [row[:2] for row in _BAD_VALUES + _REPEATED_VALUES],
        ids=_BAD_VALUE_IDS + [f"repeated-{key}" for key, _, _ in _REPEATED_VALUES])
    def test_refusal_is_the_python_callers(self, tmp_path, key, value):
        # A file's value meets the very checks a Python caller's does: its
        # refusal is the SweepSpec/ModemConfig rule, under the file's key.
        values = {k: tuple(v) if isinstance(v, list) else v
                  for k, v in {**_SWEEP, key: value}.items()}
        values["kind"] = tuple(TransformKind(k) for k in values["kind"])
        with pytest.raises(ParameterError) as python:
            SweepSpec(
                config=ModemConfig(**{f.name: values[k] for k, f in config._MODEM_FIELDS.items()}),
                **{f.name: values[k] for k, f in config._SPEC_FIELDS.items()},
            )
        rule = str(python.value).partition(" ")[2]
        path = _sweep_file(tmp_path, **{key: value})
        with pytest.raises(ConfigError, match=f"^{re.escape(f'{path}: {key} {rule}')}$"):
            sweep_spec_from_file(path)

    def test_bad_kind_rejected(self, tmp_path):
        path = _sweep_file(tmp_path, kind=["DFT"])
        with pytest.raises(ConfigError,
                           match=f"^{re.escape(f'{path}: kind must be FrCT or FrHT')}"):
            sweep_spec_from_file(path)


def _axis(elements):
    # An axis repeats no value: a repeated one is no valid SweepSpec.
    return st.lists(elements, min_size=1, max_size=4, unique=True).map(tuple)


@st.composite
def _sweep_specs(draw):
    """Any valid SweepSpec whose base config takes the first alpha and kind,
    as every parsed spec does."""
    alphas = draw(_axis(st.floats(0.0, 1.0, exclude_min=True)))
    kinds = draw(_axis(st.sampled_from(TransformKind)))
    n = draw(st.integers(2, 4096))
    config = ModemConfig(
        n=n, alpha=alphas[0], kind=kinds[0],
        cp_len=draw(st.integers(0, n)),
        data_symbols_per_frame=draw(st.integers(1, 512)),
        training_symbols=draw(st.integers(0, 16)), sync_symbols=draw(st.integers(0, 4)),
    )
    return SweepSpec(
        config=config, alphas=alphas, kinds=kinds,
        ebn0_dbs=draw(_axis(st.floats(-300, 300))),
        iteration_counts=draw(_axis(st.integers(0, 100))),
        max_bits=draw(st.integers(100_000, 10**12)),
        min_errors=draw(st.integers(0, 10**6)),
        frames_per_batch=draw(st.integers(1, 64)),
        seed=draw(st.integers(0, 2**80)),
    )


class TestSweepSpecRoundTrip:
    @given(_sweep_specs())
    def test_json(self, spec):
        payload = json.loads(json.dumps(sweep_spec_to_dict(spec)))
        assert sweep_spec_from_json_dict(payload) == spec


# Any JSON value: NaN and +-inf as Python's json reads them, integers up to
# the 4300 digits it parses, strings, the kind names, and nestings of these.
_JSON_VALUES = st.recursive(
    st.one_of(st.none(), st.booleans(), st.floats(), st.integers(),
              st.sampled_from([2**63, -2**64, 10**400, -10**4000]),
              st.text(max_size=8), st.sampled_from([k.value for k in TransformKind])),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=4), inner,
                                                                max_size=3),
    max_leaves=8,
)


@st.composite
def _sweep_dicts(draw):
    """The dict of a valid spec, with some keys dropped, some given any JSON
    value, and at times a stray key."""
    values = sweep_spec_to_dict(draw(_sweep_specs()))
    keys = sorted(values)
    for key in draw(st.lists(st.sampled_from(keys), unique=True, max_size=2)):
        del values[key]
    for key in draw(st.lists(st.sampled_from(keys), unique=True, max_size=3)):
        values[key] = draw(_JSON_VALUES)
    for key in draw(st.lists(st.from_regex(r"[a-z_]{1,12}", fullmatch=True), max_size=1)):
        values[key] = draw(_JSON_VALUES)
    return values


class TestSweepDictProperty:
    @given(_sweep_dicts())
    def test_parses_or_names_a_key(self, values):
        # Parse only: any JSON object gives a spec, or a ConfigError naming
        # its source and a key; never another exception.
        keys = config._SWEEP_FIELDS.keys()
        try:
            assert isinstance(sweep_spec_from_json_dict(values, "sweep.json"), SweepSpec)
        except ConfigError as exc:
            source, _, message = str(exc).partition(": ")
            assert source == "sweep.json"
            if message.startswith("unknown key(s) "):
                assert message == f"unknown key(s) {sorted(values.keys() - keys)}"
            elif message.startswith("missing required key(s) "):
                assert message == f"missing required key(s) {sorted(keys - values.keys())}"
            else:
                assert message.removeprefix("bad ").split(" ")[0] in keys


class TestCapacityParams:
    def test_defaults_normalise_powers_and_bandwidth(self):
        assert capacity_params() == CapacityParams(bandwidth_hz=1.0, signal_power=1.0,
                                                   noise_power=1.0)

    def test_snr_db_shorthand(self):
        params = capacity_params(snr_db=10, bandwidth_hz=1e9, alpha=0.8)
        assert params.signal_power == pytest.approx(10.0)
        assert params.noise_power == 1.0
        assert params.alpha == 0.8

    @pytest.mark.parametrize("snr_db", [3000.5, 1e308])
    def test_snr_db_bounded(self, snr_db):
        with pytest.raises(ParameterError, match="^snr_db must "):
            capacity_params(snr_db=snr_db)


# The CLI's readers of a JSON object file: a sweep file and a manifest.
_READERS = ["--config", "--manifest"]


def _read_with(capsys, flag, path, out):
    """The exit code and error message (None if none) of the CLI reading the
    file at `path` through `flag`; a sweep file's run writes `out`."""
    argv = (["sweep-ber", "--config", str(path), "--out", str(out)] if flag == "--config"
            else ["--manifest", str(path)])
    code = main(argv)
    err = capsys.readouterr().err
    return code, json.loads(err.removeprefix("error: "))["message"] if err else None


class TestManifests:
    def test_round_trip(self, tmp_path):
        manifest = make_manifest(
            "corr-row",
            {"kind": "FrCT", "n": 16, "alpha": 0.8, "k": 8},
            0,
            [{"path": "row.csv", "format": "csv"}],
        )
        path = tmp_path / "row.csv.manifest.json"
        records.write_json(path, asdict(manifest))
        back = load_manifest(str(path))
        assert back.subcommand == manifest.subcommand
        assert back.resolved == manifest.resolved
        assert back.outputs == manifest.outputs
        assert back.created_utc == manifest.created_utc

    def test_path_convention(self):
        assert manifest_path_for("out/sweep.csv") == "out/sweep.csv.manifest.json"

    @pytest.mark.parametrize("flag", _READERS)
    @pytest.mark.parametrize("text,message", [
        ("{not json", "invalid JSON"),
        ('{"n": ' + "9" * 5000 + "}", "invalid JSON"),  # past the digits json parses
        ("[]", "must be a JSON object"),
        ('"sweep"', "must be a JSON object"),
        ('{"n": 16, "seed": 0, "n": 32}', "duplicate key 'n'"),
    ], ids=["not-json", "5000-digits", "list", "string", "duplicate-key"])
    def test_no_json_object_rejected(self, capsys, tmp_path, flag, text, message):
        path = tmp_path / "in.json"
        path.write_text(text)
        code, error = _read_with(capsys, flag, path, tmp_path / "out.csv")
        assert code == 2
        assert error.startswith(f"{path}: ")
        assert message in error

    @pytest.mark.parametrize("flag", _READERS)
    def test_missing_file_rejected(self, capsys, tmp_path, flag):
        path = tmp_path / "none.json"
        code, error = _read_with(capsys, flag, path, tmp_path / "out.csv")
        assert code == 2
        assert error.startswith(f"{path}: ")

    @pytest.mark.parametrize("flag", _READERS)
    def test_byte_order_mark_skipped(self, capsys, tmp_path, flag):
        out = tmp_path / "out.json"
        if flag == "--config":
            text = json.dumps(_SWEEP)
        else:
            assert main(["rates", "--out", str(out)]) == 0
            text = Path(manifest_path_for(out)).read_text()
        outputs = []
        for name, mark in (("plain.json", b""), ("marked.json", b"\xef\xbb\xbf")):
            path = tmp_path / name
            path.write_bytes(mark + text.encode())
            assert _read_with(capsys, flag, path, out) == (0, None)
            outputs.append(out.read_bytes())
            out.unlink()
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize(
        "payload,message",
        [
            ({"subcommand": "rates", "resolved": {}, "seed": 0}, "'outputs'"),
            ({"subcommand": "rates", "resolved": {}, "seed": 0, "outputs": [], "x": 1},
             "['x']"),
            ({"subcommand": "rates", "resolved": [], "seed": 0, "outputs": []},
             "'resolved' must be a JSON dict"),
            ({"subcommand": "rates", "resolved": {}, "seed": 0, "outputs": [{}]},
             "'outputs'"),
            ({"subcommand": "rates", "resolved": {}, "seed": 0,
              "outputs": [{"path": True, "format": "json"}]}, "'path' and 'format' strings"),
            ({"subcommand": "rates", "resolved": {}, "seed": 0,
              "outputs": [{"path": "r.json", "format": None}]}, "'path' and 'format' strings"),
            ({"subcommand": "rates", "resolved": {}, "seed": 0,
              "outputs": [{"path": "r.xml", "format": "xml"}]},
             "manifest field 'outputs': format must be 'csv' or 'json', got 'xml'"),
            ({"subcommand": "rates", "resolved": {}, "seed": 0,
              "outputs": [{"path": "r.csv", "format": "CSV"}]},
             "manifest field 'outputs': format must be 'csv' or 'json', got 'CSV'"),
            ({"subcommand": "rates", "resolved": {}, "seed": 0,
              "outputs": [{"path": "r.json", "format": "json"}, {"path": "r", "format": ""}]},
             "manifest field 'outputs': format must be 'csv' or 'json', got ''"),
        ],
    )
    def test_malformed_rejected_naming_field(self, tmp_path, payload, message):
        path = tmp_path / "m.json"
        records.write_json(path, payload)
        with pytest.raises(ConfigError, match=re.escape(message)):
            load_manifest(str(path))

    def test_records_tool_version(self):
        manifest = make_manifest("rates", {}, 0, [])
        assert isinstance(manifest, RunManifest)
        assert manifest.tool_version


class TestDocumentedFormat:
    def test_readme_sweep_file_is_accepted(self):
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        block = re.search(r"^### Sweep files$.*?^```json\n(.*?)^```$", readme,
                          re.MULTILINE | re.DOTALL)
        values = json.loads(block.group(1))
        spec = sweep_spec_from_json_dict(values, "README.md")
        assert sweep_spec_to_dict(spec) == values
