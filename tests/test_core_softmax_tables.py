"""Bit-identity of the table-driven softmax circuit against its float oracle.

:meth:`IterativeSoftmaxCircuit.forward` runs Algorithm 1 on one-count arrays
through step tables compiled once per config.  ``oracle_forward`` below is
the arithmetic float dataflow the circuit emulation used before the tables:
it re-derives every quantity from ``ThermometerStream`` levels on every
iteration.  The tables must reproduce it bit for bit — fault-free, under
bit-flip injection and on calls too small to pay for the tables, where the
step functions run on the level arrays directly — and must call a
``stream_hook`` at the same sites, in the same order, with the same counts.
"""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.blocks.specs import calibrate_alpha_y
from repro.core.softmax_circuit import (
    IterativeSoftmaxCircuit,
    SoftmaxCircuitConfig,
    _SoftmaxTables,
)
from repro.eval_pipeline.faults import BitFlipFaultModel
from repro.sc.bitstream import ThermometerStream


def oracle_forward(cfg, x, stream_hook=None):
    """The circuit dataflow evaluated in float on stream levels (reference)."""
    x = np.asarray(x, dtype=float)
    x_stream = ThermometerStream.encode(x, cfg.bx, cfg.alpha_x)
    if stream_hook is not None:
        x_stream = stream_hook("x", x_stream)
    x_levels = x_stream.signed_levels()

    init_level = max(1, int(round((1.0 / cfg.m) / cfg.alpha_y)))
    init_level = min(init_level, cfg.by // 2)
    y_stream = ThermometerStream.from_quantized(
        np.full(x.shape, init_level, dtype=np.int64), cfg.by, cfg.alpha_y
    )
    if stream_hook is not None:
        y_stream = stream_hook("y0", y_stream)

    z_grid = cfg.alpha_x * cfg.alpha_y
    for iteration in range(cfg.iterations):
        y_levels = y_stream.signed_levels()
        y_q = y_levels * cfg.alpha_y
        z_levels = x_levels * y_levels
        z_q = z_levels * z_grid
        sum_levels = z_levels.sum(axis=-1, keepdims=True)
        sum_sub_levels = np.rint(sum_levels / cfg.s1).astype(np.int64)
        sum_grid = z_grid * cfg.s1
        prod_levels = y_levels * sum_sub_levels
        prod_sub_levels = np.rint(prod_levels / cfg.s2).astype(np.int64)
        prod_grid = cfg.alpha_y * sum_grid * cfg.s2
        prod = prod_sub_levels * prod_grid
        update = y_q + (z_q - prod) / cfg.iterations
        y_stream = ThermometerStream.encode(update, cfg.by, cfg.alpha_y)
        if stream_hook is not None:
            y_stream = stream_hook(f"y{iteration + 1}", y_stream)
    return y_stream.decode()


def fault_hook(batch, flip_prob=0.05, seed=0):
    model = BitFlipFaultModel(flip_prob, seed=seed)
    model.begin_batch(range(batch))
    return lambda site, stream: model.perturb_stream(stream)


def circuit_for(cfg, tables):
    """A circuit with its step tables compiled up front, or left to its budget."""
    circuit = IterativeSoftmaxCircuit(cfg)
    if tables:
        circuit._step_tables = _SoftmaxTables.compile(cfg, 1 << 16)
    return circuit


def digest(values):
    return hashlib.sha256(np.ascontiguousarray(values, dtype="<f8").tobytes()).hexdigest()


#: The serving config (Table VI parameters retargeted to 17 tokens).
SERVING = SoftmaxCircuitConfig(
    m=64, iterations=3, bx=4, alpha_x=2.0, by=8,
    alpha_y=calibrate_alpha_y(8, 64), s1=32, s2=8,
).clamped_to_vector_length(17)

#: The Table VI config at its native m = 64: 9225 prod_sub entries.
TABLE_VI = SoftmaxCircuitConfig(
    m=64, iterations=3, bx=4, alpha_x=2.0, by=8,
    alpha_y=calibrate_alpha_y(8, 64), s1=32, s2=8,
)
#: A DSE corner whose prod_sub table alone is too large to build here.
LARGE_SUM = SoftmaxCircuitConfig(
    m=64, iterations=2, bx=8, alpha_x=0.5, by=32, alpha_y=0.01, s1=2, s2=1
)
#: prod_sub fits a small batch's budget, but the next-count table does not.
LARGE_NEXT = SoftmaxCircuitConfig(
    m=8, iterations=3, bx=8, alpha_x=0.5, by=32, alpha_y=0.02, s1=1, s2=1
)


class TestParentDigests:
    """Digests of ``forward`` recorded on the float-path implementation."""

    @pytest.mark.parametrize(
        "shape, flip_prob, expected",
        [
            ((16, 4, 17, 17), 0.0, "04906ffae81b03188bb862965678781669aed179a648350d362a23095b0e9951"),
            ((16, 4, 17, 17), 0.05, "82b1cd480e7820f07002b9ee95ca84c2618ec5c8731348ff04bb04c18bd6ac03"),
            ((256, 4, 17, 17), 0.0, "be667b5746e76257288fc342f57e2c6af7e6886754d1b1304e98a839ed3c4d88"),
            ((256, 4, 17, 17), 0.05, "b495109fd5ffd496ce267d03aa8139a6efe9350d44bcfa823f3d20eea27c8c0c"),
        ],
    )
    def test_serving_shapes(self, shape, flip_prob, expected):
        x = np.random.default_rng(shape[0]).normal(0.0, 2.0, size=shape)
        hook = fault_hook(shape[0], flip_prob) if flip_prob else None
        out = IterativeSoftmaxCircuit(SERVING).forward(x, stream_hook=hook)
        assert out.dtype == np.float64 and out.shape == shape
        assert digest(out) == expected


@st.composite
def feasible_configs(draw):
    bx = draw(st.integers(1, 8))
    by = draw(st.integers(1, 32).filter(lambda by: bx * by % 2 == 0))
    cfg = SoftmaxCircuitConfig(
        m=draw(st.integers(1, 64)),
        iterations=draw(st.integers(1, 4)),
        bx=bx,
        alpha_x=draw(st.floats(0.1, 4.0)),
        by=by,
        alpha_y=draw(st.floats(0.005, 0.5)),
        s1=1,
        s2=1,
    )
    cfg = cfg.with_updates(s1=draw(st.integers(1, cfg.sum_length_raw)))
    return cfg.with_updates(s2=draw(st.integers(1, cfg.prod_length_raw)))


class TestOracleSweep:
    @given(cfg=feasible_configs(), seed=st.integers(0, 2**16), faulted=st.booleans())
    @settings(max_examples=120, deadline=None)
    def test_matches_oracle_bit_for_bit(self, cfg, seed, faulted):
        rows = 3
        x = np.random.default_rng(seed).normal(0.0, cfg.alpha_x * cfg.bx, size=(rows, cfg.m))

        def hook():  # a freshly armed fault model per run
            return fault_hook(rows) if faulted else None

        ref = oracle_forward(cfg, x, stream_hook=hook())
        # A fresh circuit takes whichever path this small call's budget
        # picks; tables compiled up front (where cheap enough) take the other.
        compiled = circuit_for(cfg, tables=True)
        for circuit in (circuit_for(cfg, tables=False), compiled):
            out = circuit.forward(x, stream_hook=hook())
            assert out.tobytes() == ref.tobytes()
        tables = compiled._step_tables
        if tables is not None:  # the analytic |p| bound is tight
            assert np.abs(tables.prod_sub).max() == tables.prod_max

    @pytest.mark.parametrize("cfg", [LARGE_SUM, LARGE_NEXT], ids=["sum", "next"])
    @pytest.mark.parametrize("flip_prob", [0.0, 0.05])
    def test_over_budget_runs_the_step_functions(self, cfg, flip_prob):
        circuit = IterativeSoftmaxCircuit(cfg)
        x = np.random.default_rng(7).normal(0.0, 2.0, size=(4, 3, cfg.m))

        def hook():  # a freshly armed fault model per side
            return fault_hook(4, flip_prob) if flip_prob else None

        out = circuit.forward(x, stream_hook=hook())
        assert circuit._step_tables is None
        assert out.tobytes() == oracle_forward(cfg, x, stream_hook=hook()).tobytes()


class TestTableBudget:
    def test_serving_tables_compile_on_a_single_image(self):
        circuit = IterativeSoftmaxCircuit(SERVING)
        assert circuit._step_tables is None
        x = np.zeros((1, 4, SERVING.m, SERVING.m))
        circuit.forward(x)
        tables = circuit._step_tables
        assert tables is not None
        assert max(tables.prod_sub.size, tables.next.size) <= x.size * SERVING.iterations
        circuit.forward(x)
        assert circuit._step_tables is tables

    def test_small_calls_defer_until_a_batch_covers_the_tables(self):
        circuit = IterativeSoftmaxCircuit(TABLE_VI)
        rng = np.random.default_rng(5)
        small, large = (rng.normal(0.0, 4.0, size=(rows, TABLE_VI.m)) for rows in (8, 64))
        runs = [(small, None), (large, "compiled"), (small, "reused")]
        tables = None
        for x, expect in runs:
            out = circuit.forward(x)
            assert out.tobytes() == oracle_forward(TABLE_VI, x).tobytes()
            if expect is None:
                assert circuit._step_tables is None
            elif expect == "compiled":
                tables = circuit._step_tables
                assert tables is not None and tables.prod_sub.size > small.size * TABLE_VI.iterations
            else:
                assert circuit._step_tables is tables

    def test_empty_batch(self):
        out = IterativeSoftmaxCircuit(SERVING).forward(np.zeros((0, SERVING.m)))
        assert out.shape == (0, SERVING.m)


def recording_hook(log):
    def hook(site, stream):
        log.append((site, stream.counts.copy(), stream.length, stream.scale))
        return stream

    return hook


#: One config per forward path: SERVING with its tables, LARGE_NEXT without.
PATHS = [(SERVING, True), (LARGE_NEXT, False)]


class TestStreamHook:
    @pytest.mark.parametrize("cfg, tables", PATHS, ids=["tables", "direct"])
    def test_sites_order_and_counts_match_oracle(self, cfg, tables):
        x = np.random.default_rng(3).normal(0.0, 2.0, size=(5, cfg.m))
        seen, expected = [], []
        circuit = circuit_for(cfg, tables)
        circuit.forward(x, stream_hook=recording_hook(seen))
        assert (circuit._step_tables is not None) == tables
        oracle_forward(cfg, x, stream_hook=recording_hook(expected))
        sites = ["x", "y0"] + [f"y{i + 1}" for i in range(cfg.iterations)]
        assert [entry[0] for entry in seen] == sites
        assert [entry[0] for entry in expected] == sites
        for (_, counts, length, scale), (_, ref_counts, ref_length, ref_scale) in zip(seen, expected):
            assert np.array_equal(counts, ref_counts)
            assert (length, scale) == (ref_length, ref_scale)

    @pytest.mark.parametrize("cfg, tables", PATHS, ids=["tables", "direct"])
    @pytest.mark.parametrize("site", ["x", "y0", "y1"])
    @pytest.mark.parametrize("shift", [-1, 1])
    def test_out_of_range_counts_raise(self, cfg, tables, site, shift):
        def hook(name, stream):
            if name != site:
                return stream
            # Push one count just outside [0, L] on the side the shift points to.
            counts = stream.counts.copy()
            counts.flat[0] = -1 if shift < 0 else stream.length + 1
            return ThermometerStream(counts, stream.length, stream.scale, validate=False)

        x = np.random.default_rng(4).normal(0.0, 2.0, size=(2, cfg.m))
        with pytest.raises(ValueError, match="outside"):
            circuit_for(cfg, tables).forward(x, stream_hook=hook)

    def test_changed_stream_length_raises(self):
        def hook(name, stream):
            return ThermometerStream(stream.counts, stream.length + 2, stream.scale)

        with pytest.raises(ValueError, match="length"):
            IterativeSoftmaxCircuit(SERVING).forward(np.zeros((1, SERVING.m)), stream_hook=hook)
