"""Command-line front end for the simulation harness.

Every run that writes an output file also writes `<output>.manifest.json`
holding the fully resolved parameters; `ftnlab --manifest <path>` replays a
manifest and regenerates the output bit-identically.
"""

import argparse
import json
import sys
from dataclasses import asdict, fields, replace
from functools import partial

from . import __version__, berlab, capacity, config, icimodel, modem, records
from .exceptions import ConfigError, ExportError, ParameterError, check_keys
from .transforms import TransformKind


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # a usage error, reported as every other error
        raise ParameterError(f"{self.prog}: {message}")


def _out_flags(parser, required=True, formats=True):
    parser.add_argument("--out", required=required, help="output file path")
    if formats:
        parser.add_argument("--format", choices=["csv", "json"], default="csv")


_BASELINE = modem.experiment_baseline()
_LINK_FIELDS = {f.name: f.type for f in fields(modem.ModemConfig)}


def _link_flags(parser, *names):
    """A flag for each named ModemConfig field, spelled from the field name,
    typed by the field and defaulting to `modem.experiment_baseline()`."""
    for name in names:
        default = getattr(_BASELINE, name)
        if name == "kind":
            parser.add_argument("--kind", choices=[k.value for k in TransformKind],
                                default=default.value)
        else:
            parser.add_argument("--" + name.replace("_", "-"), type=_LINK_FIELDS[name],
                                default=default)


def build_parser():
    """Each subcommand declares only the flags it reads.  Its parameters are
    the flags outside `_RUN_FLAGS`; a manifest records them in declaration
    order, so `--seed` comes last where it is one."""
    parser = _Parser(
        prog="ftnlab",
        description="Faster-than-Nyquist multicarrier simulation laboratory",
        allow_abbrev=False,
    )
    parser.add_argument("--manifest", help="replay a run manifest")
    parser.add_argument("--version", action="version", version=f"ftnlab {__version__}")
    add_parser = partial(parser.add_subparsers(dest="subcommand").add_parser, allow_abbrev=False)

    p = add_parser("sweep-ber", help="Monte Carlo BER sweep over a parameter grid")
    p.add_argument("--config", help="sweep file: a JSON object of every sweep key")
    p.add_argument("--seed", type=int, help="RNG seed override")
    _out_flags(p)
    p.add_argument(
        "--workers", type=int, default=1, help="worker threads sharing the grid's curves"
    )

    p = add_parser("corr-row", help="export one row of the correlation matrix")
    _out_flags(p)
    _link_flags(p, "kind", "n", "alpha")
    p.add_argument("--k", type=int, default=128, help="subcarrier index")

    p = add_parser("ici-pdf", help="histogram of demodulated 2-PAM values")
    _out_flags(p)
    _link_flags(p, "kind", "n", "alpha")
    p.add_argument("--frames", type=int, default=4096)
    p.add_argument("--seed", type=int, default=0, help="RNG seed")

    p = add_parser("psd", help="Welch power spectral density of the waveform")
    _out_flags(p)
    _link_flags(p, "kind", "n", "alpha", "cp_len")
    p.add_argument("--frames", type=int, default=64)
    p.add_argument("--seed", type=int, default=0, help="RNG seed")

    p = add_parser("capacity", help="capacity-limit calculators")
    _out_flags(p, required=False, formats=False)
    p.add_argument("--alpha", type=float)
    p.add_argument("--ici-power", type=float, help="P_ICI, in units of P_N = 1")
    p.add_argument("--symbol-duration", type=float, help="seconds")
    p.add_argument("--bandwidth", dest="bandwidth_hz", type=float, help="Hz")
    p.add_argument("--snr-db", type=float)

    p = add_parser("rates", help="symbol/Nyquist rate and bandwidth accounting")
    _out_flags(p, required=False, formats=False)
    _link_flags(p, "alpha", "n", "cp_len", "data_symbols_per_frame", "training_symbols",
                "sync_symbols")
    return parser


# Flags that steer a run rather than describe it; `resolved` leaves them out.
_RUN_FLAGS = {"manifest", "subcommand", "config", "out", "format", "workers"}


def _modem_config(resolved):
    """The link of a corr-row, psd, ici-pdf or rates run: the ModemConfig
    fields it names."""
    values = {name: resolved[name] for name in _LINK_FIELDS if name in resolved}
    if "kind" in values:
        values["kind"] = config.transform_kind(values["kind"])
    return modem.ModemConfig(**values)


# ---------------------------------------------------------------------------
# Runners: (resolved params dict, out, fmt, workers) -> exit code.
# Replay feeds saved `resolved` dicts straight back into these.

def _run_sweep_ber(resolved, out, fmt, workers):
    spec = config.sweep_spec_from_json_dict(resolved)
    result = berlab.run_ber_sweep(spec, workers=workers)
    berlab.export_results(result, out, fmt)
    for p in result.points:
        print(
            f"{p.kind.value} alpha={p.alpha} I={p.iterations} "
            f"EbN0={p.ebn0_db}dB ber={p.ber:.3e} ({p.errors}/{p.bits})"
        )
    return 0


def _run_corr_row(resolved, out, fmt, workers):
    cfg = _modem_config(resolved)
    c = icimodel.correlation_matrix(cfg.kind, cfg.n, cfg.alpha)
    records.write_table(out, fmt, icimodel.correlation_row(c, resolved["k"]))
    print(f"wrote |C[l, {resolved['k']}]| for N={resolved['n']} alpha={resolved['alpha']}")
    return 0


def _run_ici_pdf(resolved, out, fmt, workers):
    values, _ = icimodel.ici_samples(_modem_config(resolved), resolved["frames"],
                                     resolved["seed"])
    hist = icimodel.ici_histogram(values)
    berlab.export_results(hist, out, fmt)
    sigma = icimodel.fit_sigma_mle(values)
    ks = icimodel.ks_distance(values, icimodel.IciPdfModel(sigma=sigma))
    print(f"samples={hist.sample_count} sigma_mle={sigma:.5f} ks={ks:.5f}")
    return 0


def _run_psd(resolved, out, fmt, workers):
    est = berlab.estimate_psd(_modem_config(resolved), resolved["frames"], resolved["seed"])
    berlab.export_results(est, out, fmt)
    print(f"-10 dB edge: {berlab.psd_edge(est) / 1e9:.3f} GHz")
    return 0


def _run_capacity(resolved, out, fmt, workers):
    params = capacity.CapacityParams(**resolved)
    record = {
        "shannon_limit_bps": capacity.shannon_limit(params),
        "log2_distinguishable_signals": capacity.distinguishable_signals(params),
        "capacity_ftn_bps": capacity.capacity_ftn(replace(params, ici_power=0.0)),
        "capacity_ftn_ici_bps": capacity.capacity_ftn(params),
    }
    if out:
        records.write_json(out, record)
    print(json.dumps(record, indent=2))
    return 0


def _run_rates(resolved, out, fmt, workers):
    report = modem.rate_report(_modem_config(resolved))
    print(f"symbol rate        : {report.symbol_rate / 1e9:.3f} GS/s")
    print(f"nyquist rate       : {report.nyquist_rate / 1e9:.3f} Gbit/s")
    print(f"baseband bandwidth : {report.baseband_bandwidth / 1e9:.3f} GHz")
    print(f"net bit rate       : {report.net_bit_rate / 1e9:.3f} Gbit/s")
    if out:
        records.write_json(out, asdict(report))
    return 0


_RUNNERS = {
    "sweep-ber": _run_sweep_ber,
    "corr-row": _run_corr_row,
    "ici-pdf": _run_ici_pdf,
    "psd": _run_psd,
    "capacity": _run_capacity,
    "rates": _run_rates,
}


def _resolve(args):
    """The parameters a run records: those of sweep-ber's sweep file, the
    CapacityParams of the capacity flags, or else the subcommand's own
    parameter flags that are set, in declaration order."""
    if args.subcommand == "sweep-ber":
        if not args.config:
            raise ConfigError("sweep-ber requires --config")
        spec = config.sweep_spec_from_file(args.config)
        if args.seed is not None:
            spec = replace(spec, seed=args.seed)
        return config.sweep_spec_to_dict(spec)
    given = {k: v for k, v in vars(args).items() if k not in _RUN_FLAGS and v is not None}
    if args.subcommand != "capacity":
        return given
    return asdict(config.capacity_params(**given))


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.manifest:
            if args.subcommand:
                raise ConfigError(
                    f"--manifest replays the run it records; got subcommand "
                    f"{args.subcommand!r} too"
                )
            manifest = config.load_manifest(args.manifest)
            if manifest.subcommand not in _RUNNERS:
                raise ConfigError(f"{args.manifest}: unknown subcommand {manifest.subcommand!r}")
            # A replayed run names exactly the parameters its subcommand records;
            # the sweep parser checks a sweep's keys itself.
            if manifest.subcommand == "sweep-ber":
                config.sweep_spec_from_json_dict(manifest.resolved, args.manifest)
            else:
                recorded = _resolve(parser.parse_args([manifest.subcommand, "--out", "-"]))
                check_keys(f"{args.manifest}: resolved", manifest.resolved, recorded)
            if not manifest.outputs and manifest.subcommand not in ("capacity", "rates"):
                raise ConfigError(f"{args.manifest}: manifest field 'outputs' is empty, "
                                  f"but {manifest.subcommand} requires --out")
            output = manifest.outputs[0] if manifest.outputs else {"path": None, "format": "csv"}
            workers = 1
        elif not args.subcommand:
            parser.error("a subcommand or --manifest is required")
        else:
            resolved = _resolve(args)
            output = {"path": args.out, "format": getattr(args, "format", "json")}
            manifest = config.make_manifest(
                args.subcommand, resolved, resolved.get("seed", 0), [output]
            )
            # Only sweep-ber has workers.
            workers = getattr(args, "workers", 1)
        out = output["path"]
        try:
            code = _RUNNERS[manifest.subcommand](manifest.resolved, out, output["format"],
                                                 workers)
        except (ConfigError, ParameterError) as exc:
            if not args.manifest:
                raise
            # A replayed run reads every value from the manifest's `resolved`.
            raise ConfigError(f"{args.manifest}: resolved: {exc}") from None
        if out:
            records.write_json(config.manifest_path_for(out), asdict(manifest))
        return code
    except SystemExit as exc:  # --help, --version
        return exc.code or 0
    except (ConfigError, ParameterError, ExportError, MemoryError) as exc:
        # A bare MemoryError carries no message.
        sys.stderr.write("error: " + json.dumps({"message": str(exc) or "out of memory"}) + "\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
