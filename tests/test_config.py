"""Config-file parsing, validation diagnostics, and run manifests."""

import json
import re
from dataclasses import asdict

import pytest

from ftnlab.config import (
    RunManifest,
    capacity_params_from_file,
    load_manifest,
    make_manifest,
    manifest_path_for,
    parse_config,
    read_key_values,
    sweep_spec_from_file,
    sweep_spec_from_json_dict,
    sweep_spec_to_dict,
)
from ftnlab import records
from ftnlab.exceptions import ConfigError
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

    def test_bad_kind_rejected(self, tmp_path):
        path = _write(tmp_path, "alpha = 0.8\nkind = DFT\n")
        with pytest.raises(ConfigError, match="FrCT or FrHT"):
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


class TestCapacityParams:
    def test_explicit_powers(self, tmp_path):
        path = _write(tmp_path, "bandwidth_hz = 4e9\nsignal_power = 9\nnoise_power = 1\n")
        params = capacity_params_from_file(path)
        assert params.bandwidth_hz == 4e9
        assert params.signal_power == 9.0

    def test_snr_db_shorthand(self, tmp_path):
        path = _write(tmp_path, "bandwidth_hz = 1e9\nsnr_db = 10\nalpha = 0.8\n")
        params = capacity_params_from_file(path)
        assert params.signal_power == pytest.approx(10.0)
        assert params.noise_power == 1.0
        assert params.alpha == 0.8

    def test_snr_db_conflicts_with_powers(self, tmp_path):
        path = _write(tmp_path, "snr_db = 10\nsignal_power = 4\n")
        with pytest.raises(ConfigError, match="snr_db"):
            capacity_params_from_file(path)

    def test_parse_config_targets(self, tmp_path):
        sweep = _write(tmp_path, "alpha = 0.8\n", name="s.cfg")
        cap = _write(tmp_path, "snr_db = 10\n", name="c.cfg")
        assert parse_config(sweep, target="sweep").alphas == (0.8,)
        assert parse_config(cap, target="capacity").signal_power == pytest.approx(10.0)
        with pytest.raises(ConfigError):
            parse_config(sweep, target="psd")


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
