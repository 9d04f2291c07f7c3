"""Output and scratch buffers of the frame chain.

Each function that takes `out=`/scratch arrays must return the bytes of its
allocating form, write them into the caller's arrays (which start out full of
garbage here), and reject a bad buffer with a ShapeError that names it.
"""

import re
import tracemalloc
from functools import partial

import numpy as np
import pytest

from ftnlab.channel import apply_awgn
from ftnlab.equalize import IdConfig, id_equalize_frame
from ftnlab.berlab import _workspace
from ftnlab.exceptions import ParameterError, ShapeError
from ftnlab.icimodel import correlation_matrix
from ftnlab.modem import (
    PAM_LEVELS,
    ModemConfig,
    experiment_baseline,
    pam_index,
    pam_map,
    pilot_rows,
    random_data_bits,
    transmit,
)
from ftnlab.transforms import TransformKind, demultiplex, make_plan, multiplex
from timedomain import receive

KINDS = [(TransformKind.FRCT, 0.8), (TransformKind.FRHT, 0.45)]


def assert_same_bytes(got, want):
    assert (got.dtype, got.shape) == (want.dtype, want.shape)
    assert got.tobytes() == want.tobytes()


def garbage(shape, dtype=np.float64):
    fill = {np.dtype(np.float64): np.nan, np.dtype(np.float32): np.nan,
            np.dtype(np.uint8): 7, np.dtype(np.uint32): 7}
    return np.full(shape, fill[np.dtype(dtype)], dtype=dtype)


def _config(kind, alpha, cp_len, pilots):
    return ModemConfig(
        n=32, alpha=alpha, kind=kind, cp_len=cp_len,
        data_symbols_per_frame=6, sync_symbols=pilots[0], training_symbols=pilots[1],
    )


PILOTS = pytest.mark.parametrize("pilots", [(0, 0), (1, 2)])
CP_LENS = pytest.mark.parametrize("cp_len", [0, 5])
KIND_ALPHA = pytest.mark.parametrize("kind,alpha", KINDS)


class TestTransforms:
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

    @KIND_ALPHA
    @pytest.mark.parametrize("rows", [1, 9])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_demultiplex_float32_noise(self, kind, alpha, rows, dtype):
        # float32 noise rows, as `apply_awgn` draws them, are demultiplexed in
        # the plan's precision: as they are through a float32 plan, widened
        # through a float64 one.
        plan = make_plan(kind, 32, alpha, dtype)
        white = np.random.default_rng(3).standard_normal((rows, 32), np.float32)
        want = demultiplex(plan, white)
        assert_same_bytes(want, white.astype(dtype) @ plan.kernel)
        out = garbage((rows, 32), dtype)
        for _ in range(2):
            assert demultiplex(plan, white, out=out) is out
            assert_same_bytes(out, want)

    def test_vector_form(self):
        plan = make_plan(TransformKind.FRCT, 16, 0.9)
        v = np.random.default_rng(3).normal(size=16)
        assert_same_bytes(multiplex(plan, v), v @ plan.kernel.T)


class TestModem:
    @PILOTS
    @CP_LENS
    @KIND_ALPHA
    def test_transmit(self, kind, alpha, cp_len, pilots):
        # The waveform equals a prefix concatenated onto a contiguous product.
        config = _config(kind, alpha, cp_len, pilots)
        bits = random_data_bits(config, np.random.default_rng(4), 3)
        want = transmit(config, bits)
        data = pam_map(bits).reshape(3, 6, 32)
        pilot = np.broadcast_to(np.concatenate(pilot_rows(config)), (3, sum(pilots), 32))
        bodies = multiplex(make_plan(kind, 32, alpha), np.concatenate([pilot, data], axis=1))
        assert_same_bytes(want, np.concatenate([bodies[..., 32 - cp_len:], bodies], axis=-1))

    @pytest.mark.parametrize("frames", [1, 3])
    @PILOTS
    @CP_LENS
    @KIND_ALPHA
    def test_loopback(self, kind, alpha, cp_len, pilots, frames):
        # Noise-free, each received data row is C times its 2-PAM levels,
        # whatever the prefix, the pilots and the frame count.
        config = _config(kind, alpha, cp_len, pilots)
        bits = random_data_bits(config, np.random.default_rng(13), frames)
        out = receive(config, transmit(config, bits))
        levels = PAM_LEVELS[bits.astype(int)].reshape(frames, 6, 32)
        c = correlation_matrix(kind, 32, alpha).entries
        np.testing.assert_allclose(out, levels @ c.T, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_pam_map(self, dtype):
        # The levels are exact in either float dtype.
        bits = np.random.default_rng(6).integers(0, 2, size=60 * 3)
        want = pam_map(bits).astype(dtype)
        out = garbage(want.shape, dtype)
        assert pam_map(bits, out=out) is out
        assert_same_bytes(out, want)

    def test_pam_index(self):
        values = np.random.default_rng(7).normal(scale=1.5, size=(4, 25))
        special = np.concatenate([PAM_LEVELS, [0.0, -0.0, np.inf, -np.inf, np.nan]])
        values.flat[:special.size] = special
        want = pam_index(values)
        out = garbage(values.shape, np.uint8)
        assert pam_index(values, out=out) is out
        assert_same_bytes(out, want)


class TestChannel:
    @pytest.mark.parametrize("seed,sigma,shape", [(0, 0.3, (4, 139, 272)), (9, 2.5, (7,))])
    def test_scaled_standard_normals_are_normal(self, seed, sigma, shape):
        drawn = np.empty(shape)
        np.random.default_rng(seed).standard_normal(out=drawn)
        drawn *= sigma
        assert_same_bytes(drawn, np.random.default_rng(seed).normal(0.0, sigma, size=shape))

    @KIND_ALPHA
    @pytest.mark.parametrize("rows", [1, 9])
    def test_apply_awgn(self, kind, alpha, rows):
        plan = make_plan(kind, 32, alpha, np.float32)
        want = apply_awgn(np.random.SeedSequence(3), plan, rows)
        # The allocating form is float32 standard normal noise, demultiplexed
        # in float32.
        white = np.random.default_rng(3).standard_normal((rows, 32), np.float32)
        assert_same_bytes(want, demultiplex(plan, white))
        out, scratch = garbage((rows, 32), np.float32), garbage((rows, 32), np.float32)
        for _ in range(2):
            assert apply_awgn(np.random.SeedSequence(3), plan, rows, out=out,
                              scratch=scratch) is out
            assert_same_bytes(out, want)
            assert_same_bytes(scratch, white)


class TestEqualize:
    @pytest.mark.parametrize("iterations", [0, 7])
    @KIND_ALPHA
    def test_id_equalize_frame(self, kind, alpha, iterations):
        config = IdConfig(correlation_matrix(kind, 32, alpha))
        rows = np.random.default_rng(11).normal(scale=1.2, size=(9, 32))
        want = id_equalize_frame(config, rows, iterations)
        work = garbage((4,) + rows.shape, np.float32)
        for _ in range(2):
            got = id_equalize_frame(config, rows, iterations, work=work)
            assert np.shares_memory(got, work[0])
            assert_same_bytes(got, want)


def _bad_buffers():
    """(call taking buffer `name`, name, correct shape, dtype) per buffer, each
    with the function and buffer as its id."""
    config = ModemConfig(n=16, cp_len=2, data_symbols_per_frame=3, sync_symbols=1,
                         training_symbols=1)
    bits = random_data_bits(config, np.random.default_rng(0), 2)
    plan = make_plan(config.kind, 16, 1.0)
    narrow = make_plan(config.kind, 16, 1.0, np.float32)
    seed = np.random.SeedSequence(0)
    id_cfg = IdConfig(correlation_matrix(config.kind, 16, 0.9))
    rows = np.ones((6, 16))
    cases = [
        pytest.param(lambda buf: demultiplex(plan, rows, out=buf), "out", (6, 16), np.float64,
                     id="demultiplex-out"),
        pytest.param(lambda buf: pam_map(bits[0], out=buf), "out", (48,), np.float64,
                     id="pam_map-out"),
        pytest.param(lambda buf: pam_index(rows, out=buf), "out", (6, 16), np.uint8,
                     id="pam_index-out"),
        pytest.param(lambda buf: apply_awgn(seed, narrow, 6, out=buf), "out", (6, 16),
                     np.float32, id="apply_awgn-out"),
        pytest.param(lambda buf: apply_awgn(seed, narrow, 6, scratch=buf), "scratch", (6, 16),
                     np.float32, id="apply_awgn-scratch"),
    ]
    # The detector's `work` at m < N, m = N and m > N (the loop reads the
    # planes transposed only for m < N), and at I = 0, which skips the loop.
    for m, iterations in ((6, 3), (16, 3), (20, 3), (6, 0)):
        stack = np.ones((m, 16))
        cases.append(pytest.param(
            lambda buf, stack=stack, iterations=iterations: id_equalize_frame(
                id_cfg, stack, iterations, work=buf),
            "work", (4, m, 16), np.float32, id=f"id_equalize_frame-work-m{m}-I{iterations}"))
    return cases


BAD_BUFFERS = _bad_buffers()
STRIDED_PLAN = make_plan(TransformKind.FRCT, 6, 1.0, np.float32)


class TestBadBuffers:
    @pytest.mark.parametrize("call,name,shape,dtype", BAD_BUFFERS)
    def test_wrong_shape(self, call, name, shape, dtype):
        with pytest.raises(ShapeError, match=f"^{name} must be a .* array of shape"):
            call(np.zeros(shape[:-1] + (shape[-1] + 1,), dtype=dtype))

    @pytest.mark.parametrize("call,name,shape,dtype", BAD_BUFFERS)
    def test_wrong_dtype(self, call, name, shape, dtype):
        # `pam_map` takes float32 as well as float64 levels.
        wrong = np.int32 if dtype == np.float64 else np.float64
        with pytest.raises(ShapeError, match=re.escape(f"{name} must be a {np.dtype(dtype)}")):
            call(np.zeros(shape, dtype=wrong))

    @pytest.mark.parametrize("call,name,shape,dtype", BAD_BUFFERS)
    def test_read_only(self, call, name, shape, dtype):
        buf = np.zeros(shape, dtype=dtype)
        buf.setflags(write=False)
        with pytest.raises(ShapeError, match=f"^{name} must be writable$"):
            call(buf)

    @pytest.mark.parametrize("call,name,shape,dtype", BAD_BUFFERS)
    def test_not_an_array(self, call, name, shape, dtype):
        with pytest.raises(ShapeError, match=f"^{name} must be .* got list$"):
            call(np.zeros(shape, dtype=dtype).tolist())

    @pytest.mark.parametrize("shape", [(6, 16), (3, 6, 16), (5, 6, 16), (2, 6, 16), (4, 16, 6),
                                       (1, 4, 6, 16)])
    def test_work_is_four_planes_of_the_stack(self, shape):
        # One (m, N) plane, a plane count other than 4, the (N, m) transpose
        # the loop reads for m < N, or an extra axis: each is refused.
        config = IdConfig(correlation_matrix(TransformKind.FRCT, 16, 0.9))
        with pytest.raises(ShapeError,
                           match=re.escape("work must be a float32 array of shape (4, 6, 16)")):
            id_equalize_frame(config, np.ones((6, 16)), 3, work=np.zeros(shape, np.float32))

    @pytest.mark.parametrize("call,name,dtype", [
        (lambda buf: apply_awgn(np.random.SeedSequence(0), STRIDED_PLAN, 4, out=buf), "out",
         np.float32),
        (lambda buf: apply_awgn(np.random.SeedSequence(0), STRIDED_PLAN, 4, scratch=buf),
         "scratch", np.float32),
        (lambda buf: demultiplex(STRIDED_PLAN, np.ones((4, 6), np.float32), out=buf), "out",
         np.float32),
        (lambda buf: demultiplex(make_plan(TransformKind.FRCT, 6, 0.8), np.ones((4, 6)),
                                 out=buf), "out", np.float64),
        (lambda buf: pam_index(np.ones((4, 6)), out=buf), "out", np.uint8),
    ], ids=["apply_awgn-out", "apply_awgn-scratch", "demultiplex-out", "demultiplex-float64-out",
            "pam_index-out"])
    def test_strided_buffer_rejected(self, call, name, dtype):
        # A (4, 6) transpose of a C-contiguous (6, 4) array, of the right
        # shape and dtype.
        with pytest.raises(ShapeError, match=f"^{name} must be C-contiguous$"):
            call(np.zeros((6, 4), dtype).T)



def _one_allocation(*shapes_dtypes):
    """C-contiguous arrays of the (shape, dtype) pairs, each a view of the
    start of one allocation."""
    raw = np.zeros(4 * 6 * 16 * 4, dtype=np.uint8)
    return [raw[:np.dtype(t).itemsize * int(np.prod(shape))].view(t).reshape(shape)
            for shape, t in shapes_dtypes]


OVERLAPS = [("apply_awgn", "out", "scratch"), ("id_equalize_frame", "rows", "work")]


class TestOverlappingBuffers:
    """A scratch or work buffer that overlaps the input or another work buffer
    would give wrong results, so it is refused, naming both arguments."""

    @pytest.mark.parametrize("function,first,second", OVERLAPS,
                             ids=["-".join(case) for case in OVERLAPS])
    def test_refused_naming_both(self, function, first, second):
        if function == "id_equalize_frame":
            rows, work = _one_allocation(((6, 16), np.float64), ((4, 6, 16), np.float32))
            config = IdConfig(correlation_matrix(TransformKind.FRCT, 16, 0.9))
            call = partial(id_equalize_frame, config, rows, 5, work=work)
        else:
            out, scratch = _one_allocation(((6, 16), np.float32), ((6, 16), np.float32))
            call = partial(apply_awgn, np.random.SeedSequence(0),
                           make_plan(TransformKind.FRCT, 16, 0.9, np.float32), 6,
                           out=out, scratch=scratch)
        with pytest.raises(ParameterError, match=f"^{first} and {second} must not share memory$"):
            call()

    # Byte offset of `rows` (768 bytes) from the start of `work` (four planes
    # of 384 bytes): from sharing only work's first entry to only its last.
    @pytest.mark.parametrize("offset", [-760, 0, 384, 768, 1152, 1528],
                             ids=["first-entry", "planes-0-1", "planes-1-2", "planes-2-3",
                                  "flags-and-past", "last-entry"])
    def test_rows_anywhere_in_work_refused(self, offset):
        raw = np.zeros(768 + 1536 + 768, dtype=np.uint8)
        work = raw[768:768 + 1536].view(np.float32).reshape(4, 6, 16)
        rows = raw[768 + offset:768 + offset + 768].view(np.float64).reshape(6, 16)
        config = IdConfig(correlation_matrix(TransformKind.FRCT, 16, 0.9))
        with pytest.raises(ParameterError, match="^rows and work must not share memory$"):
            id_equalize_frame(config, rows, 5, work=work)

    def test_disjoint_parts_of_one_allocation_pass(self):
        size = 6 * 16
        raw = np.zeros(size * (8 + 4 * 4), dtype=np.uint8)
        rows = raw[:size * 8].view(np.float64).reshape(6, 16)
        work = raw[size * 8:].view(np.float32).reshape(4, 6, 16)
        rows[:] = np.random.default_rng(14).normal(size=rows.shape)
        config = IdConfig(correlation_matrix(TransformKind.FRCT, 16, 0.9))
        want = id_equalize_frame(config, rows.copy(), 5)
        got = id_equalize_frame(config, rows, 5, work=work)
        assert_same_bytes(got, want)

    @pytest.mark.parametrize("iterations", [0, 5])
    def test_the_sweep_workspace_passes(self, iterations):
        # The sweep's detector works in the workspace's planes, on its rows.
        config = ModemConfig(n=16, alpha=0.9, data_symbols_per_frame=3, training_symbols=0,
                             sync_symbols=0)
        work = _workspace(config, 2)
        rows = work["rows"]
        rows[:] = np.random.default_rng(15).normal(size=rows.shape)
        id_cfg = IdConfig(correlation_matrix(TransformKind.FRCT, 16, 0.9))
        want = id_equalize_frame(id_cfg, rows.copy(), iterations)
        got = id_equalize_frame(id_cfg, rows, iterations, work=work["planes"])
        assert np.shares_memory(got, work["planes"])
        assert_same_bytes(got, want)


# The bytes of the arrays `_workspace` allocated for the benchmark's layouts
# before the sweep formed its rows in the data domain, when it held the
# waveform, the frequency-domain frame rows and the noise.  A workspace may
# not grow past them.
LAYOUTS = {
    "ortho_sweep": (ModemConfig(n=256, alpha=1.0, cp_len=0, data_symbols_per_frame=128,
                                training_symbols=0, sync_symbols=0), 4, True, 5_373_952),
    "ftn_sweep": (experiment_baseline(alpha=0.8), 4, True, 5_786_624),
    "large_n": (experiment_baseline(alpha=0.8, n=1024), 1, False, 3_582_720),
}


class TestWorkspace:
    @pytest.mark.parametrize("layout", LAYOUTS)
    def test_no_more_bytes_than_the_time_domain_chain(self, layout):
        config, frames, scaled, budget = LAYOUTS[layout]
        tracemalloc.start()
        try:
            work = _workspace(config, frames, scaled)
            allocated = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        arrays = sum(a.nbytes for a in work.values())
        assert arrays <= allocated < arrays + 4096
        assert arrays <= budget

    @pytest.mark.parametrize("scaled", [False, True])
    def test_buffers_are_apart_and_sized(self, scaled):
        # The detector's `work` is the planes; every other buffer is its own
        # float32 allocation of the data rows' shape.
        config = experiment_baseline()
        work = _workspace(config, 4, scaled)
        m = 4 * config.data_symbols_per_frame
        names = ["planes", "rows"] + (["noise", "signal"] if scaled else [])
        assert list(work) == names
        assert (work["planes"].dtype, work["planes"].shape) == (np.float32, (4, m, config.n))
        assert all((work[name].dtype, work[name].shape) == (np.float32, (m, config.n))
                   for name in names if name != "planes")
        assert all(a.flags.c_contiguous and a.flags.owndata for a in work.values())
