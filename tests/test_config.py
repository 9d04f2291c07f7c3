"""Config-file parsing, validation diagnostics, and run manifests."""

import json
import re
import tempfile
from dataclasses import asdict
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from ftnlab.config import (
    RunManifest,
    capacity_params,
    load_manifest,
    make_manifest,
    manifest_path_for,
    read_key_values,
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


def _write(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


class TestReadKeyValues:
    def test_comments_sections_and_blanks_ignored(self, tmp_path):
        path = _write(
            tmp_path,
            "# top comment\n[modem]\nn = 64  # inline\n\nalpha = 0.8\n",
        )
        raw = read_key_values(path)
        assert raw == {"n": ("64", 3), "alpha": ("0.8", 5)}

    def test_duplicate_key_reports_both_lines(self, tmp_path):
        path = _write(tmp_path, "n = 64\nalpha = 0.8\nn = 128\n")
        with pytest.raises(ConfigError, match="lines 1 and 3"):
            read_key_values(path)

    def test_malformed_line_reports_line_number(self, tmp_path):
        path = _write(tmp_path, "n = 64\nbogus line\n")
        with pytest.raises(ConfigError, match=":2:"):
            read_key_values(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            read_key_values(str(tmp_path / "nope.cfg"))

    def test_empty_key_reports_path_and_line(self, tmp_path):
        path = _write(tmp_path, "n = 64\n = 0.8\n")
        with pytest.raises(ConfigError, match=re.escape(f"{path}:2: empty key")):
            read_key_values(path)


class TestSweepSpec:
    def test_minimal_file_gets_defaults(self, tmp_path):
        path = _write(tmp_path, "alpha = 0.8\n")
        spec = sweep_spec_from_file(path)
        assert spec.alphas == (0.8,)
        assert spec.ebn0_dbs == (4.0, 6.0, 8.0, 10.0, 12.0)
        assert spec.iteration_counts == (20,)
        assert spec.kinds == (TransformKind.FRCT,)
        assert spec.config.n == 256
        assert spec.seed == 0

    def test_comma_lists(self, tmp_path):
        path = _write(
            tmp_path,
            "alpha = 1.0, 0.9, 0.8\nebn0_db = 4, 6\niterations = 10, 20\n"
            "kind = FrCT, FrHT\n",
        )
        spec = sweep_spec_from_file(path)
        assert spec.alphas == (1.0, 0.9, 0.8)
        assert spec.ebn0_dbs == (4.0, 6.0)
        assert spec.iteration_counts == (10, 20)
        assert spec.kinds == (TransformKind.FRCT, TransformKind.FRHT)

    def test_alpha_required(self, tmp_path):
        path = _write(tmp_path, "n = 64\n")
        with pytest.raises(ConfigError, match="alpha"):
            sweep_spec_from_file(path)

    def test_unknown_key_rejected(self, tmp_path):
        path = _write(tmp_path, "alpha = 0.8\nalhpa_typo = 1\n")
        with pytest.raises(ConfigError, match="alhpa_typo"):
            sweep_spec_from_file(path)

    def test_bad_value_reports_location(self, tmp_path):
        path = _write(tmp_path, "alpha = 0.8\nmax_bits = many\n")
        with pytest.raises(ConfigError, match=":2:"):
            sweep_spec_from_file(path)

    @pytest.mark.parametrize(
        "line,key", [("n = 16.7", "n"), ("max_bits = inf", "max_bits"),
                     ("iterations = 10, 20.5", "iterations")]
    )
    def test_non_integral_int_rejected(self, tmp_path, line, key):
        path = _write(tmp_path, f"alpha = 0.8\n{line}\n")
        with pytest.raises(ConfigError, match=f":2: {key} must be an integer"):
            sweep_spec_from_file(path)

    def test_integral_int_spellings_accepted(self, tmp_path):
        path = _write(
            tmp_path, "alpha = 0.8\nn = 64.0\nmax_bits = 1e6\nseed = 12345678901234567891\n"
        )
        spec = sweep_spec_from_file(path)
        assert (spec.config.n, spec.max_bits) == (64, 1_000_000)
        assert spec.seed == 12345678901234567891

    @pytest.mark.parametrize("value", ["", ",", " , ,"])
    def test_empty_list_names_key_and_line(self, tmp_path, value):
        path = _write(tmp_path, f"alpha = 0.8\nebn0_db = {value}\n")
        with pytest.raises(ConfigError, match=re.escape(f"{path}:2: ebn0_db list is empty")):
            sweep_spec_from_file(path)

    @pytest.mark.parametrize("key,value", [("ebn0_db", "4,,8"), ("alpha", "1.0,"),
                                           ("alpha", ", 0.8")])
    def test_empty_list_item_names_key_and_line(self, tmp_path, key, value):
        path = _write(tmp_path, f"n = 16\n{key} = {value}\n")
        with pytest.raises(ConfigError,
                           match=re.escape(f"{path}:2: {key} list has an empty item")):
            sweep_spec_from_file(path)

    @pytest.mark.parametrize("text,message", [
        ("alpha = 0.9, 0.8, 0.9\n", "alpha has a repeated value 0.9"),
        ("alpha = 0.8\nebn0_db = 4, 4.0\n", "ebn0_db has a repeated value 4.0"),
        ("alpha = 0.8\niterations = 20, 10, 20\n", "iterations has a repeated value 20"),
        ("alpha = 0.8\nkind = FrHT, FrHT\n", "kind has a repeated value FrHT"),
    ], ids=["alpha", "ebn0_db", "iterations", "kind"])
    def test_repeated_axis_value_rejected(self, tmp_path, text, message):
        # Two results for one grid point: the file, the key and the value are named.
        path = _write(tmp_path, text)
        with pytest.raises(ConfigError, match=f"^{re.escape(f'{path}: {message}')}$"):
            sweep_spec_from_file(path)

    def test_bad_kind_rejected(self, tmp_path):
        path = _write(tmp_path, "alpha = 0.8\nkind = DFT\n")
        with pytest.raises(ConfigError, match="FrCT or FrHT"):
            sweep_spec_from_file(path)

    def test_higher_pam_order_needs_zero_iterations(self, tmp_path):
        # The link is 2-PAM end to end: pam_order is no key, at any value.
        for text in ("pam_order = 4\n", "pam_order = 4\niterations = 0\n", "pam_order = 2\n"):
            path = _write(tmp_path, "alpha = 0.8\n" + text)
            with pytest.raises(ConfigError, match=re.escape("unknown key(s) ['pam_order']")):
                sweep_spec_from_file(path)

    def test_seed_override(self, tmp_path):
        path = _write(tmp_path, "alpha = 0.8\nseed = 3\n")
        assert sweep_spec_from_file(path).seed == 3
        assert sweep_spec_from_file(path, seed_override=9).seed == 9

    def test_dict_round_trip(self, tmp_path):
        path = _write(
            tmp_path,
            "alpha = 0.9, 0.8\nn = 64\nkind = FrHT\nmin_errors = 50\n",
        )
        spec = sweep_spec_from_file(path)
        # JSON round trip preserves the spec exactly.
        payload = json.loads(json.dumps(sweep_spec_to_dict(spec)))
        assert sweep_spec_from_json_dict(payload) == spec


def _axis(elements):
    # An axis repeats no value: a repeated one is no valid SweepSpec.
    return st.lists(elements, min_size=1, max_size=4, unique=True).map(tuple)


@st.composite
def _sweep_specs(draw):
    """Any valid SweepSpec without pilot rows, whose base config takes the
    first alpha and kind, as every parsed spec does."""
    alphas = draw(_axis(st.floats(0.0, 1.0, exclude_min=True)))
    kinds = draw(_axis(st.sampled_from(TransformKind)))
    n = draw(st.integers(2, 4096))
    config = ModemConfig(
        n=n, alpha=alphas[0], kind=kinds[0],
        cp_len=draw(st.integers(0, n)),
        data_symbols_per_frame=draw(st.integers(1, 512)),
        training_symbols=0, sync_symbols=0,
    )
    return SweepSpec(
        config=config, alphas=alphas, kinds=kinds,
        ebn0_dbs=draw(_axis(st.floats(allow_nan=False, allow_infinity=False))),
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

    @given(_sweep_specs())
    def test_config_file(self, spec):
        lines = [
            f"{key} = " + ", ".join(map(str, v if isinstance(v, list) else [v]))
            for key, v in sweep_spec_to_dict(spec).items()
            if key not in ("training_symbols", "sync_symbols")  # 0 in a file by default
        ]
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "sweep.cfg"
            path.write_text("\n".join(lines) + "\n")
            assert sweep_spec_from_file(str(path)) == spec


_NUMBER_TEXTS = st.one_of(
    st.floats(-1e308, 1e308, allow_nan=False).map(repr),
    st.integers(-2**70, 2**70).map(str),
)
_VALUE_TEXTS = st.one_of(
    _NUMBER_TEXTS,
    st.lists(_NUMBER_TEXTS, max_size=4).map(", ".join),
    st.sampled_from([k.value for k in TransformKind]),
    st.text(st.characters(codec="ascii", exclude_characters="\n\r"), max_size=12),
)
_SWEEP_LINES = _sweep_specs().map(lambda spec: [
    (key, ", ".join(map(str, v if isinstance(v, list) else [v])))
    for key, v in sweep_spec_to_dict(spec).items()
])


@st.composite
def _config_lines(draw, valid_lines, keys):
    """The (key, value text) lines of a valid file, some dropped, some given
    other values, and at times a stray line whose key is unknown or repeated,
    in any order."""
    lines = dict(draw(valid_lines))
    for key in draw(st.lists(st.sampled_from(sorted(lines)), unique=True, max_size=2)
                    if lines else st.just([])):
        del lines[key]
    for key in draw(st.lists(st.sampled_from(keys), unique=True, max_size=3)):
        lines[key] = draw(_VALUE_TEXTS)
    strays = st.tuples(st.sampled_from(keys) | st.from_regex(r"[a-z_]{1,12}", fullmatch=True),
                       _VALUE_TEXTS)
    return draw(st.permutations(list(lines.items()) + draw(st.lists(strays, max_size=1))))


class TestConfigTextProperty:
    @pytest.mark.parametrize("parser,valid_lines,keys,result_type", [
        (sweep_spec_from_file, _SWEEP_LINES, sorted(config._SWEEP_FIELDS), SweepSpec),
    ], ids=["sweep"])
    @given(data=st.data())
    def test_parses_or_names_a_key(self, parser, valid_lines, keys, result_type, data):
        # Parse only: any text of key/value lines gives a spec, or a
        # ConfigError naming the file and a key; never another exception.
        lines = data.draw(_config_lines(valid_lines, keys))
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "run.cfg"
            path.write_text("".join(f"{key} = {value}\n" for key, value in lines))
            try:
                assert isinstance(parser(str(path)), result_type)
            except ConfigError as exc:
                assert str(exc).startswith(str(path))
                assert any(name in str(exc) for name in {*keys, *(k for k, _ in lines)})


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

    def test_invalid_json_rejected(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(ConfigError, match="invalid JSON"):
            load_manifest(str(bad))

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            load_manifest(str(tmp_path / "none.json"))

    @pytest.mark.parametrize(
        "payload,message",
        [
            ([], "JSON object"),
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
