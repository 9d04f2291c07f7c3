#!/usr/bin/env python3
"""Statistics of the inter-carrier interference at the demodulator output.

Transmits random 2-PAM frames with no noise, demodulates, and histograms
the diagonal-normalized outputs.  The empirical distribution is a pair of
Gaussian lobes centered at the transmit levels; a one-parameter mixture
model fits it to a few parts in a thousand (Kolmogorov-Smirnov distance).
"""

import numpy as np

from ftnlab.icimodel import (
    IciPdfModel,
    fit_sigma_mle,
    ici_histogram,
    ici_samples,
    ks_distance,
    mixture_pdf,
)
from ftnlab.modem import ModemConfig


def main():
    cfg = ModemConfig(n=256, alpha=0.8, training_symbols=0, sync_symbols=0)

    print("=" * 70)
    print("1. Collect noiseless demodulated 2-PAM values (alpha = 0.8)")
    print("=" * 70)
    values, residuals = ici_samples(cfg, frames=2048, rng_seed=0)
    print(f"  samples            : {values.size}")
    print(f"  interference mean  : {np.mean(residuals):+.5f} (zero-mean crosstalk)")
    print(f"  interference stddev: {np.std(residuals):.5f}")

    print()
    print("=" * 70)
    print("2. Fit the two-Gaussian mixture")
    print("=" * 70)
    sigma = fit_sigma_mle(values)
    model = IciPdfModel(sigma=sigma)
    ks = ks_distance(values, model)
    print(f"  sigma (max likelihood): {sigma:.4f}")
    print(f"  KS distance to the fit: {ks:.4f}")

    print()
    print("=" * 70)
    print("3. Histogram vs model (coarse ASCII rendering)")
    print("=" * 70)
    hist = ici_histogram(values)
    step = 10  # show every 10th bin (0.2-wide slices)
    peak = np.max(hist.density)
    for i in range(0, hist.bin_centers.size, step):
        center = hist.bin_centers[i]
        measured = hist.density[i]
        predicted = float(mixture_pdf(model, center))
        bar = "#" * int(round(40 * measured / peak))
        print(f"  {center:+.2f}  model={predicted:6.3f}  data={measured:6.3f}  {bar}")


if __name__ == "__main__":
    main()
