"""Reading and writing result files.

Every result file of the library (BER sweeps, histograms, spectra,
correlation rows, rate and capacity reports, run manifests) is opened here,
so one failure has one form: an `ExportError` naming the path, whether the
open, a read or a write failed.  `csv.writer` writes a float, numpy's
included, as its shortest round-trip text (`repr`).
"""

import csv
import json
from contextlib import contextmanager

import numpy as np

from .exceptions import ExportError, ParameterError


@contextmanager
def opened(path, mode="r"):
    """`open(path, mode)`; UTF-8 text without newline translation, as `csv`
    requires, and a read skips a leading byte-order mark.  An `OSError` or
    undecodable text inside the block becomes an `ExportError` naming the path."""
    try:
        with open(path, mode, newline="", encoding="utf-8-sig" if mode == "r" else "utf-8") as fh:
            yield fh
    except (OSError, UnicodeDecodeError) as exc:
        raise ExportError(f"{path}: {exc}") from exc


def write_csv(path, rows):
    with opened(path, "w") as fh:
        csv.writer(fh).writerows(rows)


def write_json(path, payload):
    """`payload` as JSON indented by 2, with a trailing newline."""
    with opened(path, "w") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")


def _object(pairs):
    """A JSON object's pairs as a dict; a key given twice is a ValueError."""
    out = {}
    for key, value in pairs:
        if key in out:
            raise ValueError(f"duplicate key {key!r}")
        out[key] = value
    return out


def read_json(path):
    with opened(path) as fh:
        text = fh.read()
    try:
        return json.loads(text, object_pairs_hook=_object)
    except ValueError as exc:  # bad JSON, a repeated key, or an integer of over 4300 digits
        raise ExportError(f"{path}: invalid JSON ({exc})") from exc


def check_format(format):
    if format not in ("csv", "json"):
        raise ParameterError(f"format must be 'csv' or 'json', got {format!r}")


def write_table(path, format, columns, **fields):
    """Equal-length named columns: as CSV, a header row and then one row per
    index; as JSON, one list per column followed by the scalar `fields`."""
    check_format(format)
    lengths = {k: len(v) for k, v in columns.items()}
    if len(set(lengths.values())) > 1:  # zip would drop the longer columns' tails
        raise ParameterError(f"columns must have equal lengths, got {lengths}")
    if format == "csv":
        write_csv(path, [list(columns), *zip(*columns.values())])
    else:
        write_json(path, {**{k: np.asarray(v).tolist() for k, v in columns.items()}, **fields})

