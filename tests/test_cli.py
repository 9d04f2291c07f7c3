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
from hostmemory import refused_outright


def _run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


_SWEEP = {"n": 64, "cp_len": 4, "data_symbols_per_frame": 16, "training_symbols": 0,
          "sync_symbols": 0, "alpha": [0.9], "ebn0_db": [6.0], "iterations": [10],
          "kind": ["FrCT"], "max_bits": 1_000_000, "min_errors": 50, "frames_per_batch": 2,
          "seed": 0}


def _write_sweep(path, **edits):
    """Write `_SWEEP` with `edits` to `path` as a sweep file; returns its path."""
    path.write_text(json.dumps({**_SWEEP, **edits}))
    return str(path)


# One small run of each subcommand; SWEEP_CFG stands for a sweep file of _SWEEP.
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
    return _write_sweep(tmp_path / "sweep.json")


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
        out = tmp_path / "sweep.csv"
        for iterations in ([10], [0]):
            for order in (4, 2):
                cfg = _write_sweep(tmp_path / "sweep.json", iterations=iterations,
                                   pam_order=order)
                code, stdout, err = _run(capsys, "sweep-ber", "--config", cfg,
                                         "--out", str(out))
                assert code == 2
                assert "unknown key(s) ['pam_order']" in _one_json_error(err)
                assert stdout == ""
                assert not out.exists()

    def test_sample_rate_is_no_key(self, capsys, tmp_path):
        cfg = _write_sweep(tmp_path / "sweep.json", sample_rate=5e9)
        out = tmp_path / "sweep.csv"
        code, stdout, err = _run(capsys, "sweep-ber", "--config", cfg, "--out", str(out))
        assert code == 2
        assert "unknown key(s) ['sample_rate']" in _one_json_error(err)
        assert stdout == ""
        assert not out.exists()

    @pytest.mark.parametrize("key,value,message", [
        ("alpha", [1.0, 1.0], "alpha has a repeated value 1.0"),
        ("ebn0_db", [6.0, 4.0, 6.0], "ebn0_db has a repeated value 6.0"),
        ("ebn0_db", [math.nan], "ebn0_db must lie in [-300, 300], got nan"),
        ("frames_per_batch", 0, "frames_per_batch must be an integer >= 1, got 0"),
        ("ebn0_db", [6.0, 4000.0], "ebn0_db must lie in [-300, 300], got 4000.0"),
        ("ebn0_db", [-3300.0], "ebn0_db must lie in [-300, 300], got -3300.0"),
    ], ids=["alpha-repeated", "ebn0_db-repeated", "ebn0_db-nan", "frames_per_batch",
            "ebn0_db-huge", "ebn0_db-tiny"])
    def test_refused_value_names_file_and_key(self, capsys, tmp_path, key, value, message):
        cfg = _write_sweep(tmp_path / "sweep.json", **{key: value})
        out = tmp_path / "sweep.csv"
        code, stdout, err = _run(capsys, "sweep-ber", "--config", cfg, "--out", str(out))
        assert code == 2
        assert _one_json_error(err) == f"{cfg}: {message}"
        assert stdout == ""
        assert not out.exists()

    def test_layout_without_data_rows_refused_when_parsed(self, capsys, tmp_path):
        cfg = _write_sweep(tmp_path / "sweep.json", data_symbols_per_frame=0, sync_symbols=1)
        out = tmp_path / "sweep.csv"
        code, stdout, err = _run(capsys, "sweep-ber", "--config", cfg, "--out", str(out))
        assert code == 2
        assert _one_json_error(err) == (
            f"{cfg}: data_symbols_per_frame must be >= 1 in a BER sweep, got 0"
        )
        assert stdout == ""
        assert sorted(tmp_path.iterdir()) == [tmp_path / "sweep.json"]  # no output, no manifest

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

    @pytest.mark.parametrize("seed", [None, 7], ids=["file-seed", "seed-flag"])
    def test_resolved_is_a_sweep_file(self, capsys, tmp_path, sweep_cfg, seed):
        # A sweep manifest's `resolved`, run as a sweep file, writes what the
        # manifest replays and is recorded as it is, or with the --seed given.
        out = tmp_path / "sweep.csv"
        assert _run(capsys, "sweep-ber", "--config", sweep_cfg, "--out", str(out))[0] == 0
        manifest = tmp_path / "sweep.csv.manifest.json"
        resolved = json.loads(manifest.read_text())["resolved"]
        cfg = tmp_path / "resolved.json"
        cfg.write_text(json.dumps(resolved))
        again = tmp_path / "again.csv"
        seed_flag = [] if seed is None else ["--seed", str(seed)]
        assert _run(capsys, "sweep-ber", "--config", str(cfg), "--out", str(again),
                    *seed_flag)[0] == 0
        recorded = json.loads((tmp_path / "again.csv.manifest.json").read_text())
        assert recorded["resolved"] == (resolved if seed is None else {**resolved, "seed": 7})
        assert recorded["seed"] == (0 if seed is None else 7)
        if seed is None:
            out.unlink()
            assert _run(capsys, "--manifest", str(manifest))[0] == 0
            assert again.read_bytes() == out.read_bytes()
        else:
            written = again.read_bytes()
            again.unlink()
            assert _run(capsys, "--manifest", str(tmp_path / "again.csv.manifest.json"))[0] == 0
            assert again.read_bytes() == written != out.read_bytes()

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
    sweep = _write_sweep(tmp / "sweep.json")
    manifests = {}
    for argv in _SMALL_RUNS:
        argv = [sweep if a == "SWEEP_CFG" else a for a in argv]
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
    # A refusal names the manifest and its `resolved`, as a sweep manifest's does.
    @pytest.mark.parametrize(
        "subcommand,key,value",
        [("capacity", "alpha", "0.5"), ("rates", "alpha", "0.8"),
         ("psd", "alpha", "0.8"), ("corr-row", "kind", "FrXT"),
         ("ici-pdf", "kind", "FrXT"), ("psd", "kind", "FrXT"),
         ("corr-row", "n", "16"), ("ici-pdf", "n", "16"), ("psd", "n", "16"),
         ("rates", "n", "16"), ("capacity", "bandwidth_hz", "1e9")],
    )
    def test_bad_value_names_field(self, small_manifests, subcommand, key, value):
        code, err = _replay_edited(small_manifests, subcommand, key, value)
        assert code == 2
        path = small_manifests[1] / "edited.json"
        assert _one_json_error(err).startswith(f"{path}: resolved: {key} must ")

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
        path = tmp_path / "input.json"
        path.write_bytes(_NOT_UTF8)
        out = ["--out", str(tmp_path / "out.json")] if argv[0] != "--manifest" else []
        code, stdout, err = _run(capsys, *argv, str(path), *out)
        assert code == 2
        assert _one_json_error(err).startswith(f"{path}: ")
        assert stdout == ""
        assert list(tmp_path.iterdir()) == [path]

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
        assert f"resolved: unknown key(s) ['{key}']" in _one_json_error(err)

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

    # Each run asks for more than a 47-bit address space (128 TiB) holds, so
    # no host grants it: numpy refuses at once, and the error names the field.
    @pytest.mark.parametrize("argv,field", [
        (["ici-pdf", "--frames", "100000000000"], "frames = 100000000000"),
        (["psd", "--frames", "100000000000"], "frames = 100000000000"),
        (["sweep-ber", "--config", "BIG_CFG"], "frames_per_batch = 1000000000000"),
    ], ids=["ici-pdf", "psd", "sweep-ber"])
    def test_run_too_large_to_allocate_names_its_field(self, capsys, tmp_path, argv, field):
        big_cfg = _write_sweep(tmp_path / "big.json", frames_per_batch=1_000_000_000_000)
        out = tmp_path / "out.json"
        argv = [big_cfg if arg == "BIG_CFG" else arg for arg in argv]
        code, _, err = _run(capsys, *argv, "--out", str(out))
        assert code == 2
        message = _one_json_error(err)
        assert message.startswith(field + " asks for more memory than can be allocated: ")
        assert "Unable to allocate" in message
        assert not out.exists()

    # Sizes numpy cannot index (a dimension past its index type, or a count
    # past a C long): it refuses them before allocating anything.
    # The field named is the one set too large, whichever allocation numpy
    # refuses first.
    @pytest.mark.parametrize("argv,edits,field", [
        (["psd", "--n", str(10**21)], {}, "n"),
        (["corr-row", "--n", str(10**21)], {}, "n"),
        (["ici-pdf", "--frames", str(10**21)], {}, "frames"),
        (["psd", "--frames", str(10**21)], {}, "frames"),
        (["sweep-ber", "--config", "BIG_CFG"], {"n": 10**30}, "n"),
        (["sweep-ber", "--config", "BIG_CFG"], {"data_symbols_per_frame": 10**24},
         "data_symbols_per_frame"),
        (["sweep-ber", "--config", "BIG_CFG"], {"frames_per_batch": 10**24}, "frames_per_batch"),
        (["sweep-ber", "--config", "BIG_CFG"], {"training_symbols": 10**27}, "training_symbols"),
        (["sweep-ber", "--config", "BIG_CFG"], {"sync_symbols": 10**35}, "sync_symbols"),
    ], ids=["psd-n", "corr-row-n", "ici-pdf-frames", "psd-frames", "sweep-n",
            "sweep-data_symbols_per_frame", "sweep-frames_per_batch",
            "sweep-training_symbols", "sweep-sync_symbols"])
    def test_size_numpy_cannot_index_names_a_field(self, capsys, tmp_path, argv, edits, field):
        big_cfg = _write_sweep(tmp_path / "big.json", **edits)
        out = tmp_path / "out.csv"
        argv = [big_cfg if arg == "BIG_CFG" else arg for arg in argv]
        code, _, err = _run(capsys, *argv, "--out", str(out))
        assert code == 2
        value = argv[argv.index("--" + field) + 1] if not edits else str(edits[field])
        assert _one_json_error(err).startswith(
            f"{field} = {value} asks for more memory than can be allocated: ")
        assert not out.exists()

    def test_correlation_matrix_too_large_to_allocate_names_n(self, capsys, tmp_path):
        if not refused_outright(8 * 10**12):
            pytest.skip("this host might grant the N x N matrix and then page it in")
        out = tmp_path / "row.csv"
        code, _, err = _run(capsys, "corr-row", "--n", "1000000", "--k", "1", "--out", str(out))
        assert code == 2
        assert _one_json_error(err).startswith(
            "n = 1000000 asks for more memory than can be allocated: Unable to allocate")
        assert not out.exists()

    def test_zero_workers(self, capsys, tmp_path, sweep_cfg):
        out = tmp_path / "sweep.csv"
        code, _, err = _run(capsys, "sweep-ber", "--config", sweep_cfg,
                            "--out", str(out), "--workers", "0")
        assert code == 2
        assert "workers must be an integer >= 1, got 0" in _one_json_error(err)
        assert not out.exists()


# A sweep that stops at its first batch: one point, 64 bits, at 0 dB.
_TINY_SWEEP = {**_SWEEP, "n": 16, "cp_len": 0, "data_symbols_per_frame": 4,
               "ebn0_db": [0.0], "iterations": [2], "min_errors": 1, "frames_per_batch": 1}
_ALPHAS = ["0.8", "1", "0", "-0.5", "1.5", "nan", "inf", "x"]
_KINDS = ["FrCT", "FrHT", "FrXT", ""]
_SEEDS = ["0", "7", "-1", "1.5", "x"]
_COUNTS = ["0", "1", "-1", "x", "1.5"]
# Never more than 16 subcarriers, 4 frames or one worker: a valid
# argument list runs in milliseconds.
_NS = ["16", "2", "1", "0", "-4", "x", "1.5", "nan", ""]
_FRAMES = ["4", "1", "0", "-1", "x"]
_FORMATS = ["csv", "json", "xml"]

# Per subcommand, the values drawn for each flag: valid ones, junk and
# out-of-range ones.  SWEEP_CFG, JUNK_CFG and BYTES_CFG name files.
_FLAG_VALUES = {
    "sweep-ber": {"--config": ["SWEEP_CFG", "JUNK_CFG", "BYTES_CFG", "missing.json"],
                  "--seed": _SEEDS, "--workers": ["1", "0", "-1", "x"], "--format": _FORMATS},
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
    (tmp / "SWEEP_CFG").write_text(json.dumps(_TINY_SWEEP))
    (tmp / "JUNK_CFG").write_text(json.dumps({**_TINY_SWEEP, "alpha": [2], "n": "x"}))
    (tmp / "BYTES_CFG").write_bytes(_NOT_UTF8)
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
