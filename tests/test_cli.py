"""Command-line front end: subcommands, error reporting, manifest replay."""

import contextlib
import copy
import io
import json
import math

import numpy as np
import pytest
from hypothesis import event, given, settings, strategies as st

from ftnlab import berlab, icimodel
from ftnlab.cli import main
from ftnlab.icimodel import correlation_matrix
from ftnlab.transforms import TransformKind


def _run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


_SWEEP_CFG = (
    "alpha = 0.9\n"
    "n = 64\n"
    "cp_len = 4\n"
    "data_symbols_per_frame = 16\n"
    "ebn0_db = 6\n"
    "iterations = 10\n"
    "min_errors = 50\n"
    "frames_per_batch = 2\n"
)

# One small run of each subcommand; SWEEP_CFG stands for a file of _SWEEP_CFG.
_SMALL_RUNS = [
    ["sweep-ber", "--config", "SWEEP_CFG"],
    ["corr-row", "--n", "16", "--k", "3"],
    ["ici-pdf", "--n", "16", "--frames", "4"],
    ["psd", "--n", "64", "--cp-len", "0", "--frames", "8"],
    ["capacity", "--snr-db", "10", "--bandwidth", "1e9"],
    ["rates"],
]


@pytest.fixture()
def sweep_cfg(tmp_path):
    path = tmp_path / "sweep.cfg"
    path.write_text(_SWEEP_CFG)
    return str(path)


class TestBasics:
    def test_no_subcommand_usage(self, capsys):
        code, out, err = _run(capsys)
        assert code == 2
        assert out == ""
        assert _one_json_error(err) == "ftnlab: a subcommand or --manifest is required"

    def test_version(self, capsys):
        code, out, _ = _run(capsys, "--version")
        assert code == 0
        assert out.startswith("ftnlab ")

    def test_unknown_subcommand(self, capsys):
        code, _, _ = _run(capsys, "frobnicate")
        assert code == 2

    def test_errors_are_json_on_stderr(self, capsys, tmp_path):
        code, _, err = _run(
            capsys, "corr-row", "--n", "1", "--out", str(tmp_path / "row.csv")
        )
        assert code == 2
        assert err.startswith("error: ")
        payload = json.loads(err[len("error: "):])
        assert "message" in payload


class TestCorrRow:
    def test_writes_csv_and_manifest(self, capsys, tmp_path):
        out = tmp_path / "row.csv"
        code, stdout, _ = _run(
            capsys, "corr-row", "--n", "16", "--alpha", "0.8", "--k", "8",
            "--out", str(out),
        )
        assert code == 0
        assert "N=16" in stdout
        lines = out.read_text().splitlines()
        assert lines[0] == "l,abs_C_l_k"
        assert len(lines) == 17
        manifest = json.loads((tmp_path / "row.csv.manifest.json").read_text())
        assert manifest["subcommand"] == "corr-row"
        assert manifest["resolved"]["n"] == 16

    def test_json_is_columnar(self, capsys, tmp_path):
        out = tmp_path / "row.json"
        code, _, _ = _run(
            capsys, "corr-row", "--n", "16", "--alpha", "0.8", "--k", "8",
            "--format", "json", "--out", str(out),
        )
        assert code == 0
        payload = json.loads(out.read_text())
        assert list(payload) == ["l", "abs_C_l_k"]
        assert payload["l"] == list(range(16))
        c = correlation_matrix(TransformKind.FRCT, 16, 0.8)
        assert payload["abs_C_l_k"] == pytest.approx(np.abs(c.entries[:, 8]), abs=1e-12)
        manifest = json.loads((tmp_path / "row.json.manifest.json").read_text())
        assert manifest["outputs"] == [{"path": str(out), "format": "json"}]


class TestRates:
    def test_stdout_report(self, capsys):
        code, out, _ = _run(capsys, "rates", "--alpha", "0.8")
        assert code == 0
        assert "symbol rate" in out
        assert "10.000 GS/s" in out

    def test_json_output(self, capsys, tmp_path):
        out = tmp_path / "rates.json"
        code, _, _ = _run(capsys, "rates", "--alpha", "0.8", "--out", str(out))
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["symbol_rate"] == 10e9
        assert payload["nyquist_rate"] == pytest.approx(8e9)


class TestCapacity:
    def test_snr_flags(self, capsys):
        code, out, _ = _run(
            capsys, "capacity", "--snr-db", "10", "--bandwidth", "1e9",
            "--alpha", "0.8",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["capacity_ftn_bps"] == pytest.approx(
            payload["shannon_limit_bps"] / 0.8, rel=1e-12
        )

    def test_ici_power_is_in_units_of_the_noise_power(self, capsys):
        # --snr-db sets P_N = 1, so P_ICI = 1 doubles the interference plus noise.
        code, out, _ = _run(capsys, "capacity", "--snr-db", "10", "--bandwidth", "1",
                            "--ici-power", "1")
        assert code == 0
        assert json.loads(out)["capacity_ftn_ici_bps"] == pytest.approx(math.log2(6),
                                                                        rel=1e-12)


class TestIciPdf:
    def test_histogram_output(self, capsys, tmp_path):
        out = tmp_path / "hist.csv"
        code, stdout, _ = _run(
            capsys, "ici-pdf", "--n", "32", "--alpha", "0.8",
            "--frames", "64", "--out", str(out),
        )
        assert code == 0
        assert "sigma_mle=" in stdout
        assert out.read_text().splitlines()[0] == "bin_center,density"


class TestPsd:
    def test_edge_reported(self, capsys, tmp_path):
        out = tmp_path / "psd.csv"
        code, stdout, _ = _run(
            capsys, "psd", "--n", "64", "--alpha", "0.8", "--cp-len", "0",
            "--frames", "8", "--out", str(out),
        )
        assert code == 0
        assert "edge" in stdout
        assert out.read_text().splitlines()[0] == "frequency_hz,density_db"


class TestSweepBer:
    def test_requires_config(self, capsys, tmp_path):
        code, _, err = _run(
            capsys, "sweep-ber", "--out", str(tmp_path / "sweep.csv")
        )
        assert code == 2
        assert "config" in err

    def test_runs_and_writes_outputs(self, capsys, tmp_path, sweep_cfg):
        out = tmp_path / "sweep.csv"
        code, stdout, _ = _run(
            capsys, "sweep-ber", "--config", sweep_cfg, "--out", str(out)
        )
        assert code == 0
        assert "ber=" in stdout
        lines = out.read_text().splitlines()
        assert lines[0] == "kind,alpha,ebn0_db,iterations,bits,errors,ber,ci_lo,ci_hi"
        assert len(lines) == 2
        manifest = json.loads((tmp_path / "sweep.csv.manifest.json").read_text())
        assert manifest["resolved"]["alpha"] == [0.9]

    def test_single_thread_matches_workers(self, capsys, tmp_path, sweep_cfg):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        assert _run(capsys, "sweep-ber", "--config", sweep_cfg,
                    "--out", str(a), "--workers", "1")[0] == 0
        assert _run(capsys, "sweep-ber", "--config", sweep_cfg,
                    "--out", str(b), "--workers", "4")[0] == 0
        assert a.read_bytes() == b.read_bytes()

    def test_higher_pam_order_needs_zero_iterations(self, capsys, tmp_path):
        # The link is 2-PAM end to end: pam_order is no key, at any value.
        cfg = tmp_path / "sweep.cfg"
        out = tmp_path / "sweep.csv"
        for text in (_SWEEP_CFG, _SWEEP_CFG.replace("iterations = 10", "iterations = 0")):
            for order in (4, 2):
                cfg.write_text(text + f"pam_order = {order}\n")
                code, stdout, err = _run(capsys, "sweep-ber", "--config", str(cfg),
                                         "--out", str(out))
                assert code == 2
                assert "unknown key(s) ['pam_order']" in _one_json_error(err)
                assert stdout == ""
                assert not out.exists()

    def test_sample_rate_is_no_key(self, capsys, tmp_path):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text(_SWEEP_CFG + "sample_rate = 5e9\n")
        out = tmp_path / "sweep.csv"
        code, stdout, err = _run(capsys, "sweep-ber", "--config", str(cfg), "--out", str(out))
        assert code == 2
        assert "unknown key(s) ['sample_rate']" in _one_json_error(err)
        assert stdout == ""
        assert not out.exists()

    def test_empty_list_item_rejected(self, capsys, tmp_path):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text(_SWEEP_CFG.replace("ebn0_db = 6", "ebn0_db = 4,,8"))
        out = tmp_path / "sweep.csv"
        code, stdout, err = _run(capsys, "sweep-ber", "--config", str(cfg), "--out", str(out))
        assert code == 2
        assert _one_json_error(err) == f"{cfg}:5: ebn0_db list has an empty item"
        assert stdout == ""
        assert not out.exists()

    @pytest.mark.parametrize("line,bad,message", [
        ("alpha = 0.9", "alpha = 1.0, 1.0", "alpha has a repeated value 1.0"),
        ("ebn0_db = 6", "ebn0_db = 6, 4, 6", "ebn0_db has a repeated value 6.0"),
        ("ebn0_db = 6", "ebn0_db = nan", "ebn0_db must be finite, got nan"),
        ("frames_per_batch = 2", "frames_per_batch = 0",
         "frames_per_batch must be an integer >= 1, got 0"),
    ], ids=["alpha-repeated", "ebn0_db-repeated", "ebn0_db-nan", "frames_per_batch"])
    def test_refused_value_names_file_and_key(self, capsys, tmp_path, line, bad, message):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text(_SWEEP_CFG.replace(line, bad))
        out = tmp_path / "sweep.csv"
        code, stdout, err = _run(capsys, "sweep-ber", "--config", str(cfg), "--out", str(out))
        assert code == 2
        assert _one_json_error(err) == f"{cfg}: {message}"
        assert stdout == ""
        assert not out.exists()

    def test_seed_override_changes_result(self, capsys, tmp_path, sweep_cfg):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        _run(capsys, "sweep-ber", "--config", sweep_cfg, "--out", str(a))
        _run(capsys, "sweep-ber", "--config", sweep_cfg, "--out", str(b),
             "--seed", "7")
        assert a.read_bytes() != b.read_bytes()


class TestManifestReplay:
    def test_replay_regenerates_bit_identical(self, capsys, tmp_path, sweep_cfg):
        out = tmp_path / "sweep.csv"
        assert _run(capsys, "sweep-ber", "--config", sweep_cfg,
                    "--out", str(out))[0] == 0
        original = out.read_bytes()
        out.unlink()
        code, _, _ = _run(
            capsys, "--manifest", str(tmp_path / "sweep.csv.manifest.json")
        )
        assert code == 0
        assert out.read_bytes() == original

    def test_subcommand_with_manifest_rejected(self, capsys, tmp_path):
        out = tmp_path / "rates.json"
        assert _run(capsys, "rates", "--out", str(out))[0] == 0
        out.unlink()
        code, stdout, err = _run(
            capsys, "--manifest", str(tmp_path / "rates.json.manifest.json"),
            "rates", "--alpha", "0.3",
        )
        assert code == 2
        assert "'rates'" in _one_json_error(err)
        assert stdout == ""
        assert not out.exists()

    @pytest.mark.parametrize(
        "key,value",
        [("alpha", ["0.8"]), ("ebn0_db", "6"), ("iterations", [10.0]), ("kind", ["FrXT"]),
         ("n", "64"), ("seed", True)],
    )
    def test_replayed_sweep_value_of_wrong_type_names_field(
        self, capsys, tmp_path, sweep_cfg, key, value
    ):
        out = tmp_path / "sweep.csv"
        assert _run(capsys, "sweep-ber", "--config", sweep_cfg, "--out", str(out))[0] == 0
        out.unlink()
        path = tmp_path / "sweep.csv.manifest.json"
        manifest = json.loads(path.read_text())
        manifest["resolved"][key] = value
        path.write_text(json.dumps(manifest))
        code, _, err = _run(capsys, "--manifest", str(path))
        assert code == 2
        assert key in _one_json_error(err)
        assert not out.exists()

    def test_replayed_higher_pam_order_with_iterations_refused(self, capsys, tmp_path,
                                                               sweep_cfg):
        out = tmp_path / "sweep.csv"
        assert _run(capsys, "sweep-ber", "--config", sweep_cfg, "--out", str(out))[0] == 0
        out.unlink()
        path = tmp_path / "sweep.csv.manifest.json"
        manifest = json.loads(path.read_text())
        # A manifest written while the link had a PAM order recorded it as 2.
        manifest["resolved"]["pam_order"] = 2
        path.write_text(json.dumps(manifest))
        code, _, err = _run(capsys, "--manifest", str(path))
        assert code == 2
        assert "unknown key(s) ['pam_order']" in _one_json_error(err)
        assert not out.exists()

    def test_replayed_sample_rate_refused_naming_the_manifest(self, capsys, tmp_path,
                                                              sweep_cfg):
        out = tmp_path / "sweep.csv"
        assert _run(capsys, "sweep-ber", "--config", sweep_cfg, "--out", str(out))[0] == 0
        out.unlink()
        path = tmp_path / "sweep.csv.manifest.json"
        manifest = json.loads(path.read_text())
        # A manifest written while the link had a settable sample rate recorded it.
        manifest["resolved"]["sample_rate"] = 10e9
        path.write_text(json.dumps(manifest))
        code, _, err = _run(capsys, "--manifest", str(path))
        assert code == 2
        assert _one_json_error(err) == f"{path}: unknown key(s) ['sample_rate']"
        assert not out.exists()

    def test_replayed_unknown_format_refused_before_the_sweep(self, capsys, tmp_path,
                                                             sweep_cfg, monkeypatch):
        out = tmp_path / "sweep.csv"
        assert _run(capsys, "sweep-ber", "--config", sweep_cfg, "--out", str(out))[0] == 0
        out.unlink()
        path = tmp_path / "sweep.csv.manifest.json"
        manifest = json.loads(path.read_text())
        manifest["outputs"][0]["format"] = "xml"
        path.write_text(json.dumps(manifest))

        def never(*args, **kwargs):
            raise AssertionError("the sweep ran")

        monkeypatch.setattr(berlab, "run_ber_sweep", never)
        code, _, err = _run(capsys, "--manifest", str(path))
        assert code == 2
        assert _one_json_error(err) == (f"{path}: manifest field 'outputs': "
                                        "format must be 'csv' or 'json', got 'xml'")
        assert not out.exists()

    def test_replay_missing_manifest(self, capsys, tmp_path):
        code, _, err = _run(capsys, "--manifest", str(tmp_path / "none.json"))
        assert code == 2
        assert "error:" in err

    @pytest.mark.parametrize(
        "edit,field",
        [
            ({"subcommand": "nope"}, "nope"),
            ({"extra": 1}, "extra"),
            ({"outputs": None}, "outputs"),
            ({"resolved": {}}, "'n'"),
            ({"resolved": {"n": 256, "alpha": 0.8}}, "'cp_len'"),
        ],
        ids=["unknown-subcommand", "extra-key", "missing-outputs", "empty-resolved",
             "partial-resolved"],
    )
    def test_malformed_manifest_names_field(self, capsys, tmp_path, edit, field):
        out = tmp_path / "rates.json"
        assert _run(capsys, "rates", "--out", str(out))[0] == 0
        path = tmp_path / "rates.json.manifest.json"
        manifest = {**json.loads(path.read_text()), **edit}
        manifest = {k: v for k, v in manifest.items() if v is not None}
        path.write_text(json.dumps(manifest))
        code, _, err = _run(capsys, "--manifest", str(path))
        assert code == 2
        assert field in _one_json_error(err)


# A JSON value of the wrong type, or a non-finite number.
_BAD_JSON_VALUES = ["", "x", "0.5", None, True, False, [], [0.5], {}, {"n": 16},
                    math.nan, math.inf, -math.inf]


@pytest.fixture(scope="module")
def small_manifests(tmp_path_factory):
    """The manifest of each of `_SMALL_RUNS`, keyed by subcommand, and a
    directory for edited copies."""
    tmp = tmp_path_factory.mktemp("replays")
    (tmp / "sweep.cfg").write_text(_SWEEP_CFG)
    manifests = {}
    for argv in _SMALL_RUNS:
        argv = [str(tmp / "sweep.cfg") if a == "SWEEP_CFG" else a for a in argv]
        out = tmp / f"{argv[0]}.out"
        with contextlib.redirect_stdout(io.StringIO()):
            assert main([*argv, "--out", str(out)]) == 0
        manifests[argv[0]] = json.loads((tmp / f"{out.name}.manifest.json").read_text())
    return manifests, tmp


def _replay_edited(small_manifests, subcommand, key, value):
    """Replay the small run of `subcommand` with resolved[key] = value;
    returns (exit code, stderr)."""
    manifests, tmp = small_manifests
    manifest = copy.deepcopy(manifests[subcommand])
    manifest["resolved"][key] = value
    path = tmp / "edited.json"
    path.write_text(json.dumps(manifest))
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(["--manifest", str(path)])
    return code, err.getvalue()


class TestReplayedValuesChecked:
    @pytest.mark.parametrize(
        "subcommand,key,value",
        [("capacity", "alpha", "0.5"), ("rates", "alpha", "0.8"),
         ("psd", "alpha", "0.8"), ("corr-row", "kind", "FrXT"),
         ("ici-pdf", "kind", "FrXT"), ("psd", "kind", "FrXT")],
    )
    def test_bad_value_names_field(self, small_manifests, subcommand, key, value):
        code, err = _replay_edited(small_manifests, subcommand, key, value)
        assert code == 2
        assert _one_json_error(err).startswith(f"{key} must ")

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_any_bad_value_exits_cleanly(self, small_manifests, data):
        subcommand = data.draw(st.sampled_from(sorted(small_manifests[0])))
        key = data.draw(st.sampled_from(sorted(small_manifests[0][subcommand]["resolved"])))
        value = data.draw(st.sampled_from(_BAD_JSON_VALUES))
        code, err = _replay_edited(small_manifests, subcommand, key, value)
        assert code in (0, 2)
        if code == 2:
            _one_json_error(err)


def _one_json_error(err):
    lines = err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("error: ")
    return json.loads(lines[0][len("error: "):])["message"]


# Bytes that are not UTF-8 text.
_NOT_UTF8 = b"alpha = 0.8\n\xff\xfe = \x81\n"


class TestBadInputFiles:
    @pytest.mark.parametrize("argv", [["sweep-ber", "--config"], ["--manifest"]],
                             ids=" ".join)
    def test_undecodable_file_names_path(self, capsys, tmp_path, argv):
        path = tmp_path / "input.cfg"
        path.write_bytes(_NOT_UTF8)
        out = ["--out", str(tmp_path / "out.json")] if argv[0] != "--manifest" else []
        code, stdout, err = _run(capsys, *argv, str(path), *out)
        assert code == 2
        assert _one_json_error(err).startswith(f"{path}: ")
        assert stdout == ""
        assert list(tmp_path.iterdir()) == [path]

    def test_config_with_a_byte_order_mark(self, capsys, tmp_path):
        plain, marked = tmp_path / "plain.cfg", tmp_path / "marked.cfg"
        plain.write_text(_SWEEP_CFG, encoding="utf-8")
        marked.write_bytes(b"\xef\xbb\xbf" + _SWEEP_CFG.encode())
        outputs = []
        for path in (plain, marked):
            out = tmp_path / f"{path.stem}.json"
            assert _run(capsys, "sweep-ber", "--config", str(path), "--out", str(out))[0] == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("subcommand", [argv[0] for argv in _SMALL_RUNS])
    def test_replayed_unknown_key_rejected(self, small_manifests, subcommand):
        code, err = _replay_edited(small_manifests, subcommand, "alhpa", 0.5)
        assert code == 2
        assert "['alhpa']" in _one_json_error(err)

    @pytest.mark.parametrize("key,value", [("segment", 1024), ("overlap", 0.5),
                                           ("window", "hann")])
    def test_replayed_welch_setting_rejected(self, small_manifests, key, value):
        # The PSD is Welch at fixed settings, so an old record of one is no key.
        code, err = _replay_edited(small_manifests, "psd", key, value)
        assert code == 2
        assert f"unknown resolved field(s) ['{key}']" in _one_json_error(err)

    @pytest.mark.parametrize("subcommand", ["sweep-ber", "corr-row", "ici-pdf", "psd"])
    def test_replay_without_outputs_refused_before_the_run(self, small_manifests, subcommand):
        manifests, tmp = small_manifests
        path = tmp / "no-outputs.json"
        path.write_text(json.dumps({**manifests[subcommand], "outputs": []}))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["--manifest", str(path)])
        assert code == 2
        assert "manifest field 'outputs' is empty" in _one_json_error(err.getvalue())
        assert out.getvalue() == ""

    @pytest.mark.parametrize("subcommand", ["capacity", "rates"])
    def test_replay_without_outputs_prints_only(self, small_manifests, subcommand):
        manifests, tmp = small_manifests
        path = tmp / "no-outputs.json"
        path.write_text(json.dumps({**manifests[subcommand], "outputs": []}))
        with contextlib.redirect_stdout(io.StringIO()) as out:
            assert main(["--manifest", str(path)]) == 0
        assert out.getvalue()

    @pytest.mark.parametrize("subcommand", [argv[0] for argv in _SMALL_RUNS])
    def test_replayed_pam_order_rejected(self, small_manifests, subcommand):
        # The link is 2-PAM end to end, so an old record of the order is no key.
        code, err = _replay_edited(small_manifests, subcommand, "pam_order", 2)
        assert code == 2
        assert "['pam_order']" in _one_json_error(err)

    @pytest.mark.parametrize("subcommand", ["sweep-ber", "psd", "rates"])
    def test_replayed_sample_rate_rejected(self, small_manifests, subcommand):
        # The link runs at the fixed modem.SAMPLE_RATE, so the runs that
        # recorded it as 1e10 are replayed with that one key deleted.
        code, err = _replay_edited(small_manifests, subcommand, "sample_rate", 1e10)
        assert code == 2
        assert "['sample_rate']" in _one_json_error(err)


class TestOneResolvedRecord:
    def test_capacity_records_its_params_from_flags(self, capsys, tmp_path):
        out = tmp_path / "cap.json"
        assert _run(capsys, "capacity", "--snr-db", "10", "--bandwidth", "1e9", "--alpha", "0.8",
                    "--out", str(out))[0] == 0
        resolved = json.loads((tmp_path / "cap.json.manifest.json").read_text())["resolved"]
        assert resolved == {
            "bandwidth_hz": 1e9, "signal_power": 10.0, "noise_power": 1.0, "ici_power": 0.0,
            "alpha": 0.8, "symbol_duration": 1.0,
        }

    def test_capacity_replay_is_byte_identical(self, capsys, tmp_path):
        out = tmp_path / "cap.json"
        assert _run(capsys, "capacity", "--snr-db", "10", "--bandwidth", "1e9",
                    "--ici-power", "0.05", "--out", str(out))[0] == 0
        original = out.read_bytes()
        out.unlink()
        assert _run(capsys, "--manifest", str(tmp_path / "cap.json.manifest.json"))[0] == 0
        assert out.read_bytes() == original

    def test_rate_flag_is_spelled_from_its_field(self, capsys, tmp_path):
        out = tmp_path / "rates.json"
        assert _run(capsys, "rates", "--data-symbols-per-frame", "64", "--out", str(out))[0] == 0
        resolved = json.loads((tmp_path / "rates.json.manifest.json").read_text())["resolved"]
        assert list(resolved) == ["alpha", "n", "cp_len", "data_symbols_per_frame",
                                  "training_symbols", "sync_symbols"]
        assert resolved["data_symbols_per_frame"] == 64

    def test_rates_has_no_pam_order_flag(self, capsys, tmp_path):
        out = tmp_path / "rates.json"
        code, stdout, err = _run(capsys, "rates", "--pam-order", "4", "--out", str(out))
        assert code == 2
        assert "--pam-order" in _one_json_error(err)
        assert stdout == ""
        assert not out.exists()

    @pytest.mark.parametrize("argv", _SMALL_RUNS, ids=lambda argv: argv[0])
    def test_no_subcommand_takes_a_pam_order_flag(self, capsys, tmp_path, sweep_cfg, argv):
        argv = [sweep_cfg if a == "SWEEP_CFG" else a for a in argv]
        out = tmp_path / "out.json"
        code, stdout, err = _run(capsys, *argv, "--pam-order", "2", "--out", str(out))
        assert code == 2
        assert "--pam-order" in _one_json_error(err)
        assert stdout == ""
        assert not out.exists()


class TestErrorsExitCleanly:
    @pytest.mark.parametrize("argv", _SMALL_RUNS)
    def test_out_is_a_directory(self, capsys, tmp_path, sweep_cfg, argv):
        argv = [sweep_cfg if a == "SWEEP_CFG" else a for a in argv]
        code, _, err = _run(capsys, *argv, "--out", str(tmp_path))
        assert code == 2
        assert str(tmp_path) in _one_json_error(err)

    @pytest.mark.parametrize(
        "argv",
        [
            ["psd", "--config", "bogus.cfg"],
            ["psd", "--segment", "1024"],
            ["psd", "--overlap", "0.5"],
            ["psd", "--window", "hann"],
            ["capacity", "--config", "cap.cfg"],
            ["psd", "--workers", "7"],
            ["corr-row", "--seed", "5"],
            ["corr-row", "--config", "nonexistent.cfg"],
            ["capacity", "--seed", "4"],
            ["capacity", "--workers", "3"],
            ["capacity", "--format", "csv"],
            ["rates", "--single-thread"],
            ["sweep-ber", "--single-thread"],
            ["ici-pdf", "--workers", "2"],
            ["capacity", "--band", "1e9"],
            ["rates", "--data-symbols", "64"],
            ["psd", "--sample-rate", "1e10"],
            ["rates", "--sample-rate", "1e10"],
        ],
        ids="-".join,
    )
    def test_flag_the_subcommand_does_not_read(self, capsys, tmp_path, argv):
        code, _, err = _run(capsys, *argv, "--out", str(tmp_path / "out.json"))
        assert code == 2
        assert "unrecognized arguments: " + argv[1] in err
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("error", [MemoryError("Unable to allocate 65.5 TiB"),
                                       MemoryError()], ids=["numpy", "bare"])
    def test_allocation_failure_is_one_json_line(self, capsys, tmp_path, monkeypatch,
                                                 error):
        def refuse(*args):
            raise error

        monkeypatch.setattr(icimodel, "correlation_matrix", refuse)
        out = tmp_path / "row.csv"
        code, _, err = _run(capsys, "corr-row", "--n", "16", "--k", "1", "--out", str(out))
        assert code == 2
        assert _one_json_error(err) == (str(error) or "out of memory")
        assert not out.exists()

    def test_zero_workers(self, capsys, tmp_path, sweep_cfg):
        out = tmp_path / "sweep.csv"
        code, _, err = _run(capsys, "sweep-ber", "--config", sweep_cfg,
                            "--out", str(out), "--workers", "0")
        assert code == 2
        assert "workers must be an integer >= 1, got 0" in _one_json_error(err)
        assert not out.exists()


# A sweep that stops at its first batch: one point, 64 bits, at 0 dB.
_TINY_SWEEP_CFG = (
    "alpha = 0.9\nn = 16\ncp_len = 0\ndata_symbols_per_frame = 4\nebn0_db = 0\n"
    "iterations = 2\nmin_errors = 1\nframes_per_batch = 1\n"
)
_ALPHAS = ["0.8", "1", "0", "-0.5", "1.5", "nan", "inf", "x"]
_KINDS = ["FrCT", "FrHT", "FrXT", ""]
_SEEDS = ["0", "7", "-1", "1.5", "x"]
_COUNTS = ["0", "1", "-1", "x", "1.5"]
# Never more than 16 subcarriers, 4 frames or one worker process: a valid
# argument list runs in milliseconds.
_NS = ["16", "2", "1", "0", "-4", "x", "1.5", "nan", ""]
_FRAMES = ["4", "1", "0", "-1", "x"]
_FORMATS = ["csv", "json", "xml"]

# Per subcommand, the values drawn for each flag: valid ones, junk and
# out-of-range ones.  SWEEP_CFG and JUNK_CFG name files.
_FLAG_VALUES = {
    "sweep-ber": {"--config": ["SWEEP_CFG", "JUNK_CFG", "missing.cfg"], "--seed": _SEEDS,
                  "--workers": ["1", "0", "-1", "x"], "--format": _FORMATS},
    "corr-row": {"--n": _NS, "--k": ["3", "0", "15", "16", "-1", "x"], "--kind": _KINDS,
                 "--alpha": _ALPHAS, "--format": _FORMATS},
    "ici-pdf": {"--n": _NS, "--frames": _FRAMES, "--kind": _KINDS, "--alpha": _ALPHAS,
                "--seed": _SEEDS, "--format": _FORMATS},
    "psd": {"--n": _NS, "--frames": _FRAMES,
            "--cp-len": ["0", "4", "16", "17", "-1", "x"], "--kind": _KINDS,
            "--alpha": _ALPHAS, "--seed": _SEEDS, "--format": _FORMATS},
    "capacity": {"--alpha": _ALPHAS, "--ici-power": ["0", "0.1", "-0.1", "1.5", "nan", "x"],
                 "--symbol-duration": ["1e-9", "0", "-1", "inf", "x"],
                 "--bandwidth": ["1e9", "0", "-1", "nan", "x"],
                 "--snr-db": ["10", "-10", "3000", "3001", "1e308", "nan", "x"]},
    "rates": {"--alpha": _ALPHAS, "--n": _NS,
              "--cp-len": ["0", "16", "300", "-1", "x"],
              "--data-symbols-per-frame": _COUNTS, "--training-symbols": _COUNTS,
              "--sync-symbols": _COUNTS},
}
# The flags that set a run's size are always given.
_SIZE_FLAGS = {"--n", "--frames"}
_STRAY_ARGUMENTS = [["--bogus"], ["--bogus", "1"], ["--workers", "1"], ["--seed"],
                    ["stray"], ["-x"], ["--out"]]


@pytest.fixture(scope="module")
def cli_dir(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("cli")
    (tmp / "SWEEP_CFG").write_text(_TINY_SWEEP_CFG)
    (tmp / "JUNK_CFG").write_bytes(b"alpha = 2\nn = x\n" + _NOT_UTF8)
    return tmp


class TestArgumentListProperty:
    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_any_argument_list_exits_cleanly(self, cli_dir, data):
        # Junk or out-of-range values, unknown flags and missing required
        # flags: exit 0, or exit 2 with one JSON error line, and never raise.
        # Each flag that is given takes its first, valid value, but for the
        # drawn set of flags whose value is drawn from all of them.
        subcommand = data.draw(st.sampled_from(sorted(_FLAG_VALUES)))
        flags = _FLAG_VALUES[subcommand]
        drawn = data.draw(st.sets(st.sampled_from(sorted(flags))))
        argv = [subcommand]
        for flag, values in flags.items():
            if flag in _SIZE_FLAGS or data.draw(st.booleans()):
                value = data.draw(st.sampled_from(values)) if flag in drawn else values[0]
                argv += [flag, str(cli_dir / value) if value.endswith("_CFG") else value]
        out = data.draw(st.one_of(st.just("out.json"), st.sampled_from(["", None])))
        if out is not None:
            argv += ["--out", str(cli_dir / out)]
        argv += data.draw(st.one_of(st.just([]), st.sampled_from(_STRAY_ARGUMENTS)))
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main(argv)
        assert code in (0, 2), argv
        event(f"{subcommand} exits {code}")
        if code == 2:
            _one_json_error(stderr.getvalue())
        else:
            assert stderr.getvalue() == "", argv
