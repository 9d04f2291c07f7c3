"""Faster-than-Nyquist non-orthogonal multicarrier laboratory.

A desk-scale simulation library for fractional cosine/Hartley transform
multiplexing: transforms, interference statistics, a full PAM modem over
AWGN, iterative-detection equalization, capacity-limit calculators, and a
reproducible Monte Carlo BER harness with a CLI front end.
"""

__version__ = "0.1.0"

from .transforms import TransformKind, TransformPlan, make_plan, multiplex, demultiplex
from .icimodel import (
    CorrelationMatrix,
    IciPdfModel,
    correlation_matrix,
    ici_power,
    mean_ici_power,
    mixture_pdf,
    ici_histogram,
)
from .modem import (
    ModemConfig,
    experiment_baseline,
    pam_map,
    transmit,
    rate_report,
)
from .channel import apply_awgn
from .equalize import IdConfig, IdTrace, id_equalize_frame
from .capacity import (
    CapacityParams,
    shannon_limit,
    distinguishable_signals,
    capacity_ftn,
)
from .berlab import (
    SweepSpec,
    BerSweepResult,
    run_ber_sweep,
    required_ebn0_at_ber,
    estimate_psd,
    psd_edge,
    export_results,
)
