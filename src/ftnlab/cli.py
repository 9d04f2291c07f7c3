"""Command-line front end for the simulation harness.

Every run that writes an output file also writes `<output>.manifest.json`
holding the fully resolved parameters; `ftnlab --manifest <path>` replays a
manifest and regenerates the output bit-identically.
"""

import argparse
import json
import sys
from dataclasses import asdict, replace

from . import __version__, berlab, capacity, config, icimodel, modem, records
from .exceptions import ConfigError, ExportError, FramingError, ParameterError, ShapeError
from .transforms import TransformKind


def _common_flags(parser, needs_out=False):
    parser.add_argument("--config", help="key/value config file")
    parser.add_argument("--seed", type=int, default=None, help="RNG seed override")
    parser.add_argument("--out", required=needs_out, help="output file path")
    parser.add_argument("--format", choices=["csv", "json"], default="csv")
    parser.add_argument("--workers", type=int, default=1, help="parallel batch workers")
    parser.add_argument(
        "--single-thread", action="store_true", help="force one worker (audit mode)"
    )


def build_parser():
    parser = argparse.ArgumentParser(
        prog="ftnlab",
        description="Faster-than-Nyquist multicarrier simulation laboratory",
    )
    parser.add_argument("--manifest", help="replay a run manifest")
    parser.add_argument("--version", action="version", version=f"ftnlab {__version__}")
    sub = parser.add_subparsers(dest="subcommand")

    p = sub.add_parser("sweep-ber", help="Monte Carlo BER sweep over a parameter grid")
    _common_flags(p, needs_out=True)

    p = sub.add_parser("corr-row", help="export one row of the correlation matrix")
    _common_flags(p, needs_out=True)
    p.add_argument("--kind", choices=["FrCT", "FrHT"], default="FrCT")
    p.add_argument("--n", type=int, default=256)
    p.add_argument("--alpha", type=float, default=0.8)
    p.add_argument("--k", type=int, default=128, help="subcarrier index")

    p = sub.add_parser("ici-pdf", help="histogram of demodulated 2-PAM values")
    _common_flags(p, needs_out=True)
    p.add_argument("--kind", choices=["FrCT", "FrHT"], default="FrCT")
    p.add_argument("--n", type=int, default=256)
    p.add_argument("--alpha", type=float, default=0.8)
    p.add_argument("--frames", type=int, default=4096)

    p = sub.add_parser("psd", help="Welch power spectral density of the waveform")
    _common_flags(p, needs_out=True)
    p.add_argument("--kind", choices=["FrCT", "FrHT"], default="FrCT")
    p.add_argument("--n", type=int, default=256)
    p.add_argument("--alpha", type=float, default=0.8)
    p.add_argument("--cp-len", type=int, default=16)
    p.add_argument("--sample-rate", type=float, default=10e9)
    p.add_argument("--frames", type=int, default=64)
    p.add_argument("--segment", type=int, default=1024)
    p.add_argument("--overlap", type=float, default=0.5)
    p.add_argument("--window", default="hann")

    p = sub.add_parser("capacity", help="capacity-limit calculators")
    _common_flags(p)
    p.add_argument("--alpha", type=float, default=1.0)
    p.add_argument("--snr-db", type=float, default=None)
    p.add_argument("--bandwidth", type=float, default=None, help="Hz")
    p.add_argument("--ici-power", type=float, default=0.0, help="fraction of P_S")
    p.add_argument("--symbol-duration", type=float, default=1.0, help="seconds")

    p = sub.add_parser("rates", help="symbol/Nyquist rate and bandwidth accounting")
    _common_flags(p)
    p.add_argument("--alpha", type=float, default=0.8)
    p.add_argument("--sample-rate", type=float, default=10e9)
    p.add_argument("--n", type=int, default=256)
    p.add_argument("--cp-len", type=int, default=16)
    p.add_argument("--pam-order", type=int, default=2)
    p.add_argument("--data-symbols", type=int, default=128)
    p.add_argument("--training-symbols", type=int, default=10)
    p.add_argument("--sync-symbols", type=int, default=1)
    return parser


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
    c = icimodel.correlation_matrix(
        TransformKind(resolved["kind"]), resolved["n"], resolved["alpha"]
    )
    records.write_table(out, fmt, icimodel.correlation_row(c, resolved["k"]))
    print(f"wrote |C[l, {resolved['k']}]| for N={resolved['n']} alpha={resolved['alpha']}")
    return 0


def _run_ici_pdf(resolved, out, fmt, workers):
    cfg = modem.ModemConfig(
        n=resolved["n"],
        alpha=resolved["alpha"],
        kind=TransformKind(resolved["kind"]),
        pam_order=2,
    )
    hist = icimodel.ici_histogram(cfg, resolved["frames"], resolved["seed"])
    berlab.export_results(hist, out, fmt)
    values, _ = icimodel.ici_samples(cfg, resolved["frames"], resolved["seed"])
    sigma = icimodel.fit_sigma_mle(values)
    ks = icimodel.ks_distance(values, icimodel.IciPdfModel(sigma=sigma))
    print(f"samples={hist.sample_count} sigma_mle={sigma:.5f} ks={ks:.5f}")
    return 0


def _run_psd(resolved, out, fmt, workers):
    cfg = modem.ModemConfig(
        n=resolved["n"],
        alpha=resolved["alpha"],
        kind=TransformKind(resolved["kind"]),
        cp_len=resolved["cp_len"],
        sample_rate=resolved["sample_rate"],
    )
    est = berlab.estimate_psd(
        cfg,
        resolved["frames"],
        resolved["seed"],
        segment=resolved["segment"],
        overlap=resolved["overlap"],
        window=resolved["window"],
    )
    berlab.export_results(est, out, fmt)
    print(f"-10 dB edge: {berlab.psd_edge(est) / 1e9:.3f} GHz")
    return 0


def _run_capacity(resolved, out, fmt, workers):
    params = config.capacity_params_from_dict(dict(resolved))
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
    cfg = modem.ModemConfig(
        n=resolved["n"],
        alpha=resolved["alpha"],
        pam_order=resolved["pam_order"],
        cp_len=resolved["cp_len"],
        data_symbols_per_frame=resolved["data_symbols"],
        training_symbols=resolved["training_symbols"],
        sync_symbols=resolved["sync_symbols"],
        sample_rate=resolved["sample_rate"],
    )
    report = modem.rate_report(cfg)
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
    """Build the fully resolved parameter dict for a subcommand."""
    seed = args.seed if args.seed is not None else 0
    if args.subcommand == "sweep-ber":
        if not args.config:
            raise ConfigError("sweep-ber requires --config")
        spec = config.sweep_spec_from_file(args.config, seed_override=args.seed)
        return config.sweep_spec_to_dict(spec)
    if args.subcommand == "corr-row":
        return {"kind": args.kind, "n": args.n, "alpha": args.alpha, "k": args.k}
    if args.subcommand == "ici-pdf":
        return {
            "kind": args.kind,
            "n": args.n,
            "alpha": args.alpha,
            "frames": args.frames,
            "seed": seed,
        }
    if args.subcommand == "psd":
        return {
            "kind": args.kind,
            "n": args.n,
            "alpha": args.alpha,
            "cp_len": args.cp_len,
            "sample_rate": args.sample_rate,
            "frames": args.frames,
            "segment": args.segment,
            "overlap": args.overlap,
            "window": args.window,
            "seed": seed,
        }
    if args.subcommand == "capacity":
        if args.config:
            return asdict(config.capacity_params_from_file(args.config))
        resolved = {
            "alpha": args.alpha,
            "ici_power": args.ici_power,
            "symbol_duration": args.symbol_duration,
        }
        if args.bandwidth is not None:
            resolved["bandwidth_hz"] = args.bandwidth
        if args.snr_db is not None:
            resolved["snr_db"] = args.snr_db
        return resolved
    if args.subcommand == "rates":
        return {
            "alpha": args.alpha,
            "sample_rate": args.sample_rate,
            "n": args.n,
            "cp_len": args.cp_len,
            "pam_order": args.pam_order,
            "data_symbols": args.data_symbols,
            "training_symbols": args.training_symbols,
            "sync_symbols": args.sync_symbols,
        }
    raise ConfigError(f"unknown subcommand {args.subcommand!r}")


def _error(message, code=2):
    sys.stderr.write("error: " + json.dumps({"message": message}) + "\n")
    return code


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code or 0
    try:
        if args.manifest:
            manifest = config.load_manifest(args.manifest)
            output = manifest.outputs[0] if manifest.outputs else {"path": None, "format": "csv"}
            workers = 1
        elif not args.subcommand:
            parser.print_usage(sys.stderr)
            return 2
        else:
            resolved = _resolve(args)
            seed = resolved.get("seed", 0)
            output = {"path": getattr(args, "out", None), "format": args.format}
            manifest = config.make_manifest(
                args.subcommand, resolved, seed if isinstance(seed, int) else 0, [output]
            )
            workers = 1 if args.single_thread else max(1, args.workers)
        out = output["path"]
        runner = _RUNNERS.get(manifest.subcommand)
        if runner is None:
            raise ConfigError(f"{args.manifest}: unknown subcommand {manifest.subcommand!r}")
        try:
            code = runner(manifest.resolved, out, output["format"], workers)
        except KeyError as exc:  # only a replayed `resolved` can lack a parameter
            if not args.manifest:
                raise
            raise ConfigError(f"{args.manifest}: resolved lacks field {exc}") from None
        if out:
            records.write_json(config.manifest_path_for(out), asdict(manifest))
        return code
    except (ConfigError, ParameterError, ShapeError, FramingError, ExportError) as exc:
        return _error(str(exc))
    except FileNotFoundError as exc:
        return _error(str(exc))


if __name__ == "__main__":
    sys.exit(main())
