#!/usr/bin/env python3
"""Monte Carlo BER curves across compression levels.

Runs a small sweep of 2-PAM rows through the compressed-spacing AWGN link
(formed in the data domain as S C + sigma W K) and iterative detection.  Moderate compression (alpha = 0.9) tracks the orthogonal
curve, alpha = 0.8 pays roughly a 2 dB penalty at the 7% FEC threshold,
and alpha = 0.7 floors.  Takes about a minute.
"""

from ftnlab.berlab import (
    FEC_LIMIT_7PCT,
    SweepSpec,
    required_ebn0_at_ber,
    run_ber_sweep,
)
from ftnlab.modem import experiment_baseline
from ftnlab.transforms import TransformKind


def main():
    spec = SweepSpec(
        config=experiment_baseline(),
        alphas=(1.0, 0.9, 0.8, 0.7),
        ebn0_dbs=(4.0, 5.0, 6.0, 7.0, 8.0, 9.0),
        iteration_counts=(20,),
        max_bits=1_000_000,
        min_errors=200,
        seed=0,
    )
    result = run_ber_sweep(spec, workers=4)

    print("=" * 70)
    print("BER vs Eb/N0 (2-PAM, N = 256, I = 20)")
    print("=" * 70)
    header = "  alpha " + "".join(f"{e:>10.0f}dB" for e in spec.ebn0_dbs)
    print(header)
    for alpha in spec.alphas:
        curve = result.curve(TransformKind.FRCT, alpha, 20)
        cells = "".join(f"{p.ber:>12.2e}" for p in curve)
        print(f"  {alpha:<6}{cells}")

    print()
    print("=" * 70)
    print(f"Required Eb/N0 at the 7% FEC threshold (BER {FEC_LIMIT_7PCT})")
    print("=" * 70)
    for (kind, alpha, _), req in required_ebn0_at_ber(result, FEC_LIMIT_7PCT).items():
        if req.status == "ok":
            print(f"  {kind.value} alpha={alpha}: {req.ebn0_db:.2f} dB")
        else:
            print(f"  {kind.value} alpha={alpha}: {req.status} over the swept range")


if __name__ == "__main__":
    main()
