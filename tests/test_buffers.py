"""Output and scratch buffers of the frame chain.

Each function that takes `out=`/scratch arrays must return the bytes of its
allocating form, write them into the caller's arrays (which start out full of
garbage here), and reject a bad buffer with a ShapeError that names it.
"""

import re

import numpy as np
import pytest

from ftnlab.channel import AwgnSpec, apply_awgn, measure_sample_energy, noise_sigma
from ftnlab.equalize import IdConfig, id_equalize_frame
from ftnlab.exceptions import ShapeError
from ftnlab.icimodel import correlation_matrix
from ftnlab.modem import (
    ModemConfig,
    gray_demap,
    pam_index,
    pam_levels,
    pam_map,
    pilot_rows,
    random_data_bits,
    receive,
    transmit,
)
from ftnlab.transforms import TransformKind, demultiplex, make_plan, multiplex

KINDS = [(TransformKind.FRCT, 0.8), (TransformKind.FRHT, 0.45)]


def assert_same_bytes(got, want):
    assert (got.dtype, got.shape) == (want.dtype, want.shape)
    assert got.tobytes() == want.tobytes()


def garbage(shape, dtype=np.float64):
    fill = {np.dtype(np.float64): np.nan, np.dtype(np.int64): -7, np.dtype(bool): True}
    return np.full(shape, fill[np.dtype(dtype)], dtype=dtype)


def _config(kind, alpha, cp_len, pilots, pam_order):
    return ModemConfig(
        n=32, alpha=alpha, kind=kind, pam_order=pam_order, cp_len=cp_len,
        data_symbols_per_frame=6, sync_symbols=pilots[0], training_symbols=pilots[1],
    )


LAYOUTS = pytest.mark.parametrize("pam_order", [2, 4, 8])
PILOTS = pytest.mark.parametrize("pilots", [(0, 0), (1, 2)])
CP_LENS = pytest.mark.parametrize("cp_len", [0, 5])
KIND_ALPHA = pytest.mark.parametrize("kind,alpha", KINDS)


class TestTransforms:
    @KIND_ALPHA
    @CP_LENS
    def test_multiplex_into_the_blocks_after_the_prefix(self, kind, alpha, cp_len):
        plan = make_plan(kind, 32, alpha)
        rows = np.random.default_rng(1).normal(size=(3, 4, 32))
        want = multiplex(plan, rows)
        assert_same_bytes(want, rows @ plan.kernel.T)
        blocks = garbage((3, 4, cp_len + 32))
        got = multiplex(plan, rows, out=blocks[..., cp_len:])
        assert np.shares_memory(got, blocks)
        assert_same_bytes(blocks[..., cp_len:].copy(), want)

    @KIND_ALPHA
    @CP_LENS
    def test_demultiplex_from_and_into_views(self, kind, alpha, cp_len):
        plan = make_plan(kind, 32, alpha)
        blocks = np.random.default_rng(2).normal(size=(3, 4, cp_len + 32))
        data = blocks[:, 1:, cp_len:]
        want = demultiplex(plan, data)
        assert_same_bytes(want, data @ plan.kernel)
        out = garbage((3, 3, 32))
        assert demultiplex(plan, data, out=out) is out
        assert_same_bytes(out, want)

    def test_vector_form(self):
        plan = make_plan(TransformKind.FRCT, 16, 0.9)
        v = np.random.default_rng(3).normal(size=16)
        out = garbage(16)
        assert multiplex(plan, v, out=out) is out
        assert_same_bytes(out, multiplex(plan, v))


class TestModem:
    @LAYOUTS
    @PILOTS
    @CP_LENS
    @KIND_ALPHA
    def test_transmit(self, kind, alpha, cp_len, pilots, pam_order):
        config = _config(kind, alpha, cp_len, pilots, pam_order)
        rng = np.random.default_rng(4)
        out = garbage((3, config.symbols_per_frame, cp_len + 32))
        rows = garbage((3, config.symbols_per_frame, 32))
        for _ in range(2):  # a reused buffer holds nothing of the last call
            bits = random_data_bits(config, rng, 3)
            want = transmit(config, bits)
            assert transmit(config, bits, out=out, rows=rows) is out
            assert_same_bytes(out, want)
        # The allocating form equals a prefix concatenated onto a contiguous product.
        data = pam_map(bits, pam_order).reshape(3, 6, 32)
        pilot = np.broadcast_to(np.concatenate(pilot_rows(config)), (3, sum(pilots), 32))
        full = np.concatenate([pilot, data], axis=1)
        assert_same_bytes(rows, full)
        bodies = multiplex(make_plan(kind, 32, alpha), full)
        assert_same_bytes(want, np.concatenate([bodies[..., 32 - cp_len:], bodies], axis=-1))

    @LAYOUTS
    @PILOTS
    @CP_LENS
    @KIND_ALPHA
    def test_receive(self, kind, alpha, cp_len, pilots, pam_order):
        config = _config(kind, alpha, cp_len, pilots, pam_order)
        samples = np.random.default_rng(5).normal(
            size=(2, config.symbols_per_frame, cp_len + 32))
        want = receive(config, samples)
        out = garbage((2, 6, 32))
        assert receive(config, samples.ravel(), out=out) is out
        assert_same_bytes(out, want)

    @LAYOUTS
    def test_pam_map(self, pam_order):
        bits = np.random.default_rng(6).integers(0, 2, size=60 * 3)
        want = pam_map(bits, pam_order)
        out = garbage(want.shape)
        assert pam_map(bits, pam_order, out=out) is out
        assert_same_bytes(out, want)

    @LAYOUTS
    def test_pam_index(self, pam_order):
        values = np.random.default_rng(7).normal(scale=1.5, size=(4, 25))
        special = np.concatenate([pam_levels(pam_order), [0.0, -0.0, np.inf, -np.inf, np.nan]])
        values.flat[:special.size] = special
        want = pam_index(values, pam_order)
        out, scratch = garbage(values.shape, np.int64), garbage(values.shape)
        assert pam_index(values, pam_order, out=out, scratch=scratch) is out
        assert_same_bytes(out, want)
        # In place: the values themselves are the scratch.
        assert_same_bytes(pam_index(values, pam_order, scratch=values), want)

    @LAYOUTS
    def test_gray_demap(self, pam_order):
        index = np.random.default_rng(12).integers(0, pam_order, size=(5, 9))
        bits = np.random.default_rng(12).integers(0, 2, size=45 * (pam_order.bit_length() - 1))
        assert_same_bytes(gray_demap(pam_index(pam_map(bits, pam_order), pam_order), pam_order),
                          bits)
        want = gray_demap(index, pam_order)
        out = garbage(want.shape, np.int64)
        assert gray_demap(index, pam_order, out=out) is out
        assert_same_bytes(out, want)


class TestChannel:
    @pytest.mark.parametrize("seed,sigma,shape", [(0, 0.3, (4, 139, 272)), (9, 2.5, (7,))])
    def test_scaled_standard_normals_are_normal(self, seed, sigma, shape):
        drawn = np.empty(shape)
        np.random.default_rng(seed).standard_normal(out=drawn)
        drawn *= sigma
        assert_same_bytes(drawn, np.random.default_rng(seed).normal(0.0, sigma, size=shape))

    @pytest.mark.parametrize("shape", [(3, 7, 9), (50,)])
    def test_apply_awgn(self, shape):
        x = np.random.default_rng(8).normal(size=shape)
        spec = AwgnSpec(eb_n0_db=5.0, bits_per_sample=0.75, rng_seed=3)
        want = apply_awgn(spec, x)
        # The allocating form is the waveform plus normal(0, sigma) noise.
        sigma = noise_sigma(spec, float(np.mean(x * x)))
        assert_same_bytes(want, x + np.random.default_rng(3).normal(0.0, sigma, size=shape))
        out, scratch = garbage(shape), garbage(shape)
        assert apply_awgn(spec, x, out=out, scratch=scratch) is out
        assert_same_bytes(out, want)
        inplace = x.copy()
        assert apply_awgn(spec, inplace, out=inplace, scratch=garbage(shape)) is inplace
        assert_same_bytes(inplace, want)

    def test_energy_scratch_holds_the_squares(self):
        x = np.random.default_rng(10).normal(size=(6, 11))
        scratch = garbage(x.shape)
        assert measure_sample_energy(x, scratch=scratch) == measure_sample_energy(x)
        assert_same_bytes(scratch, x * x)


class TestEqualize:
    @pytest.mark.parametrize("iterations", [0, 7])
    @KIND_ALPHA
    def test_id_equalize_frame(self, kind, alpha, iterations):
        config = IdConfig(iterations, correlation_matrix(kind, 32, alpha))
        rows = np.random.default_rng(11).normal(scale=1.2, size=(9, 32))
        want = id_equalize_frame(config, rows)
        shape = rows.shape
        buffers = dict(estimate=garbage(shape), product=garbage(shape),
                       decided=garbage(shape, bool))
        out = garbage(shape, np.int64)
        for _ in range(2):
            got = id_equalize_frame(config, rows, out=out, **buffers)
            assert got is out
            assert_same_bytes(out, want)


def _bad_buffers():
    """(call taking buffer `name`, name, correct shape, dtype) per buffer."""
    config = ModemConfig(n=16, cp_len=2, data_symbols_per_frame=3, sync_symbols=1,
                         training_symbols=1)
    bits = random_data_bits(config, np.random.default_rng(0), 2)
    plan = make_plan(config.kind, 16, 1.0)
    id_cfg = IdConfig(3, correlation_matrix(config.kind, 16, 0.9))
    rows = np.ones((6, 16))
    spec = AwgnSpec(eb_n0_db=5.0, bits_per_sample=1.0)
    waveform = np.ones((2, 5, 18))
    cases = [
        (lambda buf: multiplex(plan, rows, out=buf), "out", (6, 16), np.float64),
        (lambda buf: demultiplex(plan, rows, out=buf), "out", (6, 16), np.float64),
        (lambda buf: transmit(config, bits, out=buf), "out", (2, 5, 18), np.float64),
        (lambda buf: transmit(config, bits, rows=buf), "rows", (2, 5, 16), np.float64),
        (lambda buf: receive(config, waveform, out=buf), "out", (2, 3, 16), np.float64),
        (lambda buf: pam_map(bits[0], 2, out=buf), "out", (48,), np.float64),
        (lambda buf: gray_demap(rows.astype(int), 4, out=buf), "out", (192,), np.int64),
        (lambda buf: pam_index(rows, 2, out=buf), "out", (6, 16), np.int64),
        (lambda buf: pam_index(rows, 2, scratch=buf), "scratch", (6, 16), np.float64),
        (lambda buf: apply_awgn(spec, waveform, out=buf), "out", (2, 5, 18), np.float64),
        (lambda buf: apply_awgn(spec, waveform, scratch=buf), "scratch", (2, 5, 18), np.float64),
        (lambda buf: measure_sample_energy(rows, scratch=buf), "scratch", (6, 16), np.float64),
    ]
    cases.append((lambda buf: id_equalize_frame(id_cfg, rows, out=buf), "out", (6, 16), np.int64))
    for name, dtype in (("estimate", np.float64), ("product", np.float64), ("decided", bool)):
        cases.append((lambda buf, n=name: id_equalize_frame(id_cfg, rows, **{n: buf}),
                      name, (6, 16), dtype))
    return cases


BAD_BUFFERS = _bad_buffers()
BAD_IDS = [f"{i}-{case[1]}" for i, case in enumerate(BAD_BUFFERS)]


class TestBadBuffers:
    @pytest.mark.parametrize("call,name,shape,dtype", BAD_BUFFERS, ids=BAD_IDS)
    def test_wrong_shape(self, call, name, shape, dtype):
        with pytest.raises(ShapeError, match=f"^{name} must be a .* array of shape"):
            call(np.zeros(shape[:-1] + (shape[-1] + 1,), dtype=dtype))

    @pytest.mark.parametrize("call,name,shape,dtype", BAD_BUFFERS, ids=BAD_IDS)
    def test_wrong_dtype(self, call, name, shape, dtype):
        with pytest.raises(ShapeError, match=re.escape(f"{name} must be a {np.dtype(dtype)}")):
            call(np.zeros(shape, dtype=np.float32))

    @pytest.mark.parametrize("call,name,shape,dtype", BAD_BUFFERS, ids=BAD_IDS)
    def test_read_only(self, call, name, shape, dtype):
        buf = np.zeros(shape, dtype=dtype)
        buf.setflags(write=False)
        with pytest.raises(ShapeError, match=f"^{name} must be writable$"):
            call(buf)

    @pytest.mark.parametrize("call,name,shape,dtype", BAD_BUFFERS, ids=BAD_IDS)
    def test_not_an_array(self, call, name, shape, dtype):
        with pytest.raises(ShapeError, match=f"^{name} must be .* got list$"):
            call(np.zeros(shape, dtype=dtype).tolist())

    def test_strided_scratch_rejected(self):
        spec = AwgnSpec(eb_n0_db=5.0, bits_per_sample=1.0)
        x = np.ones((4, 6))
        with pytest.raises(ShapeError, match="^scratch must be C-contiguous$"):
            apply_awgn(spec, x, scratch=np.zeros((6, 4)).T)
