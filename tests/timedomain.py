"""The time-domain receive chain, as an oracle for the sweep's data-domain rows.

The sweep forms each batch's received data rows as S C + sigma W K and builds
no waveform.  These helpers take the long way, from a `modem.transmit`
waveform: measure its energy, add white noise to its samples, strip the
prefixes and demultiplex the data rows.  Tests compare the two routes.
"""

import numpy as np

from ftnlab.exceptions import FramingError, ParameterError, check_real_array
from ftnlab.transforms import demultiplex, make_plan


def measure_sample_energy(samples):
    """Mean squared sample of a waveform."""
    samples = check_real_array(samples, "samples")
    if samples.size == 0:
        raise ParameterError("samples must be nonempty")
    return float(np.mean(np.square(samples)))


def receive(config, samples):
    """Strip the cyclic prefixes of whole frames and demultiplex the data rows.

    `samples` may have any shape whose size is a whole number of frames (a
    raveled waveform or the blocks of `transmit`).  Returns raw
    frequency-domain rows (frames, data_symbols_per_frame, n), no
    equalization: each equals (transmitted row) @ C plus the noise that fell
    on that block's body, demultiplexed.
    """
    samples = check_real_array(samples, "samples")
    block = config.cp_len + config.n
    layout = (
        f"frames of {config.symbols_per_frame} blocks of "
        f"cp_len + n = {config.cp_len} + {config.n} samples"
    )
    if samples.ndim > 1 and samples.shape[-1] != block:
        raise FramingError(f"block length {samples.shape[-1]} does not match {layout}")
    if samples.size == 0 or samples.size % (config.symbols_per_frame * block):
        raise FramingError(f"{samples.size} samples are not a whole number of {layout}")
    blocks = samples.reshape(-1, config.symbols_per_frame, block)
    plan = make_plan(config.kind, config.n, config.alpha)
    return demultiplex(plan, data_bodies(config, blocks))


def data_bodies(config, blocks):
    """The view of the data blocks' bodies in `transmit`-shaped blocks: the
    samples a data row is demultiplexed from, (frames, data rows, n)."""
    return blocks[:, config.sync_symbols + config.training_symbols:, config.cp_len:]
