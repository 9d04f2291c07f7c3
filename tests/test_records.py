"""Result files: byte-exact output of every writer, and one error form."""

import hashlib
import re

import numpy as np
import pytest

from ftnlab import records
from ftnlab.berlab import BerPoint, BerSweepResult, PsdEstimate, export_results, wilson_interval
from ftnlab.cli import main
from ftnlab.equalize import IdTrace
from ftnlab.exceptions import ExportError, ParameterError
from ftnlab.icimodel import CorrelationMatrix, IciHistogram, correlation_row
from ftnlab.transforms import TransformKind

# SHA-256 of each file as the hand-written writers of ftnlab 0.1.0 produced it
# from the inputs below (manifests with "created_utc" blanked), except for
# psd.json, which holds the two columns without the fixed Welch segment,
# overlap and window, and the rates and capacity manifests: both record the
# JSON they write as "format": "json", the rates manifest names the data rows
# by their field name, data_symbols_per_frame, and records no pam_order (the
# link is 2-PAM), and the capacity manifest records the resolved
# CapacityParams (bandwidth_hz, signal_power, noise_power, ...) in place of
# the --snr-db and --bandwidth flags it ran from.
GOLDEN = {
    "capacity.json": "9c65bf5ebb7f1e4f6be698075d97f2a73822d1a58e43a0d5d945954cf913245a",
    "capacity.json.manifest.json": "5956a1aa3ba55baf9f79af92971dfabbabc9a733c0f137bdb420791559fe48c6",
    "corr_row.csv": "17b2ad4bd891b790608718b35165f72213f1ddf094d69072ed5e68b1a6afec28",
    "hist.csv": "3b7a9495684a54eee15211aeab64a4f1bf37197fa898481123eef17028e41dfc",
    "hist.json": "6002eb6fb7924654342c6b91b5b0945084b17c68b766fb7161aeb4c0f9c56aa0",
    "psd.csv": "020000cf47f2b57e572c31fcc7d069d2a9e9fcc5d09f2b3f96c1a38b3b6dc721",
    "psd.json": "d1911ea5e7193997247cb1b06d672a6bc8de9b4ebfc7e2815408f181998fbf0f",
    "rates.json": "e4687da46c1a961ad944c7bbe4d1206c0bc946aac6ec25ffb579de4e62c380e3",
    "rates.json.manifest.json": "46f81eb6228dcd9093be24f177c9f435af7773a4989c2da6a36d551aaf450e8d",
    "stream.csv": "36f1af17563fcd5f3e6094d132a6f13cac070dd84e7310a9654dd0e79680b3dc",
    "sweep.csv": "c036bf7152604e95233b811e6af347ac754186088e250ecb5069629cc4563be7",
    "sweep.json": "899b4251a2c5e168fb75997c7115466b87d8235ca5dd0b90b2681dd94f48500e",
    "trace.csv": "a0932b3c3d34f78ef09fb3a3e0101717ec75078ec38e94912236f98639c83127",
}


def _sweep():
    points = []
    for kind, alpha, ebn0_db, iterations, bits, errors in [
        (TransformKind.FRCT, 0.8, 4.0, 20, 131072, 1234),
        (TransformKind.FRCT, 0.1 + 0.2, -0.0, 0, 100000, 0),
        (TransformKind.FRHT, 0.45, 12.5, 40, 262144, 262144),
        (TransformKind.FRHT, 1.0, 7.25, 5, 3, 1),
    ]:
        lo, hi = wilson_interval(errors, bits)
        points.append(BerPoint(kind=kind, alpha=alpha, ebn0_db=ebn0_db, iterations=iterations,
                               bits=bits, errors=errors, ber=errors / bits, ci_lo=lo, ci_hi=hi))
    return BerSweepResult(points=tuple(points))


@pytest.fixture(scope="module")
def digests(tmp_path_factory):
    """Write every kind of result file from fixed inputs (no BLAS arithmetic,
    so the bytes do not depend on the machine) and hash each file."""
    rng = np.random.default_rng(20261018)
    density = rng.random(200) * 3.0
    density[:4] = (0.0, 0.0, 0.0, 5e-324)
    hist = IciHistogram(bin_edges=np.linspace(-2.0, 2.0, 201), density=density,
                        sample_count=4096)
    density_db = rng.uniform(-80.0, 0.0, 129)
    density_db[:3] = (-np.inf, -0.0, 0.0)
    psd = PsdEstimate(frequency_hz=np.linspace(0.0, 5e9, 129), density_db=density_db)
    entries = rng.uniform(-1.0, 1.0, (16, 16))
    entries[2, 3] = -0.0
    corr = CorrelationMatrix(kind=TransformKind.FRCT, n=16, alpha=0.8, entries=entries)
    samples = rng.standard_normal(3 * 18)
    samples[:3] = (-0.0, 1e-310, 1e300)
    trace = IdTrace(d_values=[1.0 - i / 3 for i in range(1, 4)], undecided_counts=[5, 2, 0])

    out = tmp_path_factory.mktemp("golden")
    sweep = _sweep()
    for fmt in ("csv", "json"):
        export_results(sweep, out / f"sweep.{fmt}", fmt)
        export_results(hist, out / f"hist.{fmt}", fmt)
        export_results(psd, out / f"psd.{fmt}", fmt)
    records.write_table(out / "corr_row.csv", "csv", correlation_row(corr, 3))
    records.write_csv(out / "stream.csv", samples[:, None])
    records.write_table(out / "trace.csv", "csv", {
        "iteration": range(1, 4), "d": trace.d_values, "undecided_count": trace.undecided_counts,
    })
    with pytest.MonkeyPatch.context() as mp:
        mp.chdir(out)  # manifests record the --out path as given
        assert main(["rates", "--alpha", "0.8", "--out", "rates.json"]) == 0
        assert main(["capacity", "--snr-db", "10", "--bandwidth", "1e9", "--alpha", "0.8",
                     "--ici-power", "0.05", "--out", "capacity.json"]) == 0
    result = {}
    for path in out.iterdir():
        data = path.read_bytes()
        if path.name.endswith(".manifest.json"):
            data = re.sub(rb'"created_utc": "[^"]*"', b'"created_utc": ""', data)
        result[path.name] = hashlib.sha256(data).hexdigest()
    return result


def test_every_output_is_covered(digests):
    assert sorted(digests) == sorted(GOLDEN)


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_output_is_byte_identical(digests, name):
    assert digests[name] == GOLDEN[name]


class TestErrors:
    @pytest.mark.parametrize("write", [
        lambda path: records.write_csv(path, [["a"], [1.0]]),
        lambda path: records.write_json(path, {"a": 1}),
        lambda path: records.write_table(path, "json", {"a": [1.0]}),
    ])
    def test_write_to_directory(self, tmp_path, write):
        with pytest.raises(ExportError, match=re.escape(str(tmp_path))):
            write(tmp_path)

    def test_read_missing_file(self, tmp_path):
        missing = tmp_path / "none"
        with pytest.raises(ExportError, match=re.escape(str(missing))):
            records.read_json(missing)

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ExportError, match="invalid JSON"):
            records.read_json(path)

    def test_undecodable_text(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_bytes(b"\xff\xfe\x00\x81")
        with pytest.raises(ExportError, match=re.escape(str(path))):
            records.read_json(path)

    def test_bad_table_format(self, tmp_path):
        with pytest.raises(ParameterError, match="format"):
            records.write_table(tmp_path / "x", "xml", {"a": [1.0]})

    @pytest.mark.parametrize("format", ["csv", "json"])
    def test_unequal_columns_refused(self, tmp_path, format):
        # Refused before the file is opened: CSV rows would drop the longer
        # columns' tails.
        path = tmp_path / f"table.{format}"
        message = "columns must have equal lengths, got {'a': 3, 'b': 1}"
        with pytest.raises(ParameterError, match=re.escape(message)):
            records.write_table(path, format, {"a": [1, 2, 3], "b": np.array([1.0])})
        assert not path.exists()
