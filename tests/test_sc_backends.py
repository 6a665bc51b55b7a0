"""Kernel-backend contract tests: bit-identity, selection precedence, fallback.

Every backend must be a pure wall-clock optimisation: for identical seeds
and inputs it must produce bit-for-bit the streams of the numpy reference
backend (which is itself pinned byte-identical to the pre-backend engine by
``test_sc_packed.py``).  These tests run the same engine operations under
each available backend and compare packed words exactly.
"""

import warnings

import numpy as np
import pytest

import repro.sc.backends as backends_mod
from repro.blocks import build, spec_from_json
from repro.blocks.specs import FsmGeluSpec
from repro.sc.arithmetic import (
    bipolar_multiply,
    draw_select_planes,
    fused_multiply_decode,
    mux_scaled_add,
    unipolar_multiply,
)
from repro.sc.backends import (
    BACKEND_ENV_VAR,
    HAVE_NUMBA,
    KernelBackend,
    ThreadedBackend,
    active_backend,
    available_backends,
    get_backend,
    set_backend,
    use_backend,
)
from repro.sc.backends.threaded_backend import _raw_select_bits, _raw_select_supported
from repro.sc.bitstream import StochasticStream
from repro.sc.fsm import FsmGeluUnit, FsmTanhUnit
from repro.sc.packed import PackedBitPlane
from repro.sc.sorting_network import BitonicSortingNetwork

#: Backends exercised by the identity suite.  "numba" is included only when
#: importable — requesting it without numba resolves to numpy (tested
#: separately), which would make the comparison vacuous.
IDENTITY_BACKENDS = ["numpy", "threaded"] + (["numba"] if HAVE_NUMBA else [])

#: Lengths straddling word boundaries, including odd tails.
LENGTHS = [1, 63, 64, 65, 100, 256]


@pytest.fixture(autouse=True)
def _clean_backend_state(monkeypatch):
    """Each test starts from the default selection state (no env, no force)."""
    monkeypatch.delenv(BACKEND_ENV_VAR, raising=False)
    previous = backends_mod._forced_name
    set_backend(None)
    yield
    set_backend(previous, force=True)
    assert not backends_mod._context_stack, "use_backend context leaked"


def _engine_outputs(length: int, seed: int = 9) -> dict:
    """One pass through every backend-routed engine op, packed words out."""
    rng = np.random.default_rng(seed)
    uni = rng.random((5, 7))
    bi = uni * 2.0 - 1.0

    a_uni = StochasticStream.encode(uni, length, seed=1)
    b_uni = StochasticStream.encode(uni[::-1], length, seed=2)
    a_bi = StochasticStream.encode(bi, length, encoding="bipolar", seed=3)
    b_bi = StochasticStream.encode(-bi, length, encoding="bipolar", seed=4)

    out = {
        "encode": a_uni.packed.words,
        "and": (a_uni.packed & b_uni.packed).words,
        "xnor": a_bi.packed.xnor(b_bi.packed).words,
        "invert": (~a_uni.packed).words,
        "popcount": a_uni.packed.popcount(),
        "mux": mux_scaled_add(a_uni, b_uni, seed=5).packed.words,
        "fused_uni": fused_multiply_decode(a_uni, b_uni),
        "fused_bi": fused_multiply_decode(a_bi, b_bi),
        "fsm_gelu": FsmGeluUnit(num_states=16).process(a_bi).packed.words,
        "fsm_tanh": FsmTanhUnit(num_states=8).process(a_bi).packed.words,
        "selects": [p.words for p in draw_select_planes((5, 7), length, 3, seed=6)],
    }
    bsn = BitonicSortingNetwork(16)
    sort_bits = (np.random.default_rng(seed + 1).random((9, 16)) < 0.5).astype(np.int8)
    out["bsn"] = bsn.sort_bits(sort_bits)
    return out


def _assert_same_outputs(got: dict, ref: dict) -> None:
    for key in ref:
        if key == "selects":
            assert all(np.array_equal(g, r) for g, r in zip(got[key], ref[key])), key
        else:
            assert np.array_equal(got[key], ref[key]), key


@pytest.mark.parametrize("length", LENGTHS)
@pytest.mark.parametrize("backend", IDENTITY_BACKENDS)
def test_backend_bit_identity(backend, length):
    """Every backend reproduces the numpy reference bit-for-bit."""
    with use_backend("numpy"):
        ref = _engine_outputs(length)
    with use_backend(backend):
        got = _engine_outputs(length)
    _assert_same_outputs(got, ref)


def test_threaded_multiworker_bit_identity():
    """A >1-worker pool (forced, regardless of host CPUs) stays bit-identical."""
    ref_backend = get_backend("numpy")
    threaded = ThreadedBackend(workers=3)
    try:
        for length in (65, 256):
            shape = (33, 17)
            probs = np.random.default_rng(0).random(shape)
            ref = ref_backend.bernoulli_plane(shape, length, probs, np.random.default_rng(1))
            got = threaded.bernoulli_plane(shape, length, probs, np.random.default_rng(1))
            assert np.array_equal(got.words, ref.words)
            ref = ref_backend.select_plane(shape, length, np.random.default_rng(2))
            got = threaded.select_plane(shape, length, np.random.default_rng(2))
            assert np.array_equal(got.words, ref.words)
        big = np.random.default_rng(3).integers(0, 2**63, size=(600, 9), dtype=np.uint64)
        other = np.random.default_rng(4).integers(0, 2**63, size=(600, 9), dtype=np.uint64)
        mask = np.uint64((1 << 60) - 1)
        big[..., -1] &= mask
        other[..., -1] &= mask
        assert np.array_equal(
            threaded.popcount_reduce(big), ref_backend.popcount_reduce(big)
        )
        for op in ("and", "xnor"):
            assert np.array_equal(
                threaded.multiply_popcount(big, other, op, mask),
                ref_backend.multiply_popcount(big, other, op, mask),
            )
        assert np.array_equal(
            threaded.xnor_words(big, other, mask), ref_backend.xnor_words(big, other, mask)
        )
    finally:
        threaded.close()


def _assert_generator_sequence_form_matches_rows(backend: KernelBackend) -> None:
    """One call with a generator per row equals stacking per-row calls."""
    ref = get_backend("numpy")
    shape = (4, 3, 5)
    for length in (1, 3, 4, 8, 13, 63, 64, 65, 128, 256):
        per_value = np.random.default_rng(length).random(shape)
        for probs in (0.3, per_value):
            gens = [np.random.default_rng(100 + i) for i in range(shape[0])]
            row_gens = [np.random.default_rng(100 + i) for i in range(shape[0])]
            got = backend.bernoulli_plane(shape, length, probs, gens)
            rows = [
                ref.bernoulli_plane(shape[1:], length, probs if np.ndim(probs) == 0 else probs[i], g)
                for i, g in enumerate(row_gens)
            ]
            assert np.array_equal(got.words, np.stack([r.words for r in rows])), length
            for g, row_g in zip(gens, row_gens):
                assert g.bit_generator.state == row_g.bit_generator.state, length


@pytest.mark.parametrize("backend", IDENTITY_BACKENDS)
def test_bernoulli_plane_generator_sequence_matches_per_row_calls(backend):
    _assert_generator_sequence_form_matches_rows(get_backend(backend))


def test_bernoulli_plane_generator_sequence_multiworker():
    threaded = ThreadedBackend(workers=3)
    try:
        _assert_generator_sequence_form_matches_rows(threaded)
    finally:
        threaded.close()


def test_bernoulli_plane_chunking_matches_one_contiguous_draw():
    """Draws taken chunk by chunk reproduce one ``rng.random`` call exactly."""
    backend = get_backend("numpy")
    for shape, length in (((700, 5), 64), ((3, 1), 40000), ((9000,), 4)):
        probs = np.random.default_rng(1).random(shape)
        rng = np.random.default_rng(2)
        got = backend.bernoulli_plane(shape, length, probs, rng)
        ref_rng = np.random.default_rng(2)
        explicit = ref_rng.random(shape + (length,)) < probs[..., None]
        assert np.array_equal(got.words, PackedBitPlane.from_bits(explicit).words)
        assert rng.bit_generator.state == ref_rng.bit_generator.state


def test_bernoulli_plane_generator_sequence_must_match_leading_axis():
    backend = get_backend("numpy")
    gens = [np.random.default_rng(i) for i in range(2)]
    with pytest.raises(ValueError):
        backend.bernoulli_plane((3, 4), 8, 0.5, gens)
    with pytest.raises(ValueError):
        backend.bernoulli_plane((), 8, 0.5, gens)


def test_raw_select_buffer_carry_matches_canonical():
    """The odd-draw half-word write-back leaves the generator exactly where
    numpy's canonical bounded draw would."""
    from numpy.random import PCG64

    if not _raw_select_supported(PCG64):
        pytest.skip("raw select fast path not validated for PCG64 here")
    ref_bg = PCG64(77)
    ref_gen = np.random.Generator(PCG64(77))
    want = ref_gen.integers(0, 2, size=129)
    follow = ref_gen.integers(0, 2, size=10)
    tail = ref_gen.random(4)

    got = _raw_select_bits(ref_bg, 129)
    assert got is not None
    assert np.array_equal(np.asarray(got, dtype=want.dtype), want)
    # The buffered half-word must now be pending...
    assert _raw_select_bits(ref_bg, 4) is None
    # ...and the canonical call consumes it exactly as numpy would.
    raw_gen = np.random.Generator(ref_bg)
    assert np.array_equal(raw_gen.integers(0, 2, size=10), follow)
    assert np.array_equal(raw_gen.random(4), tail)


def test_draw_select_planes_matches_sequential_draws():
    planes = draw_select_planes((4, 6), 100, 3, seed=123)
    backend = get_backend("numpy")
    rng = np.random.default_rng(123)
    for plane in planes:
        expected = backend.select_plane((4, 6), 100, rng)
        assert np.array_equal(plane.words, expected.words)
        assert isinstance(plane, PackedBitPlane)


def test_fused_multiply_decode_matches_two_step():
    rng = np.random.default_rng(5)
    a = StochasticStream.encode(rng.random((6, 6)), 100, seed=1)
    b = StochasticStream.encode(rng.random((6, 6)), 100, seed=2)
    assert np.allclose(fused_multiply_decode(a, b), unipolar_multiply(a, b).decode())
    a_bi = StochasticStream.encode(rng.random((6, 6)) * 2 - 1, 100, encoding="bipolar", seed=3)
    b_bi = StochasticStream.encode(rng.random((6, 6)) * 2 - 1, 100, encoding="bipolar", seed=4)
    assert np.allclose(fused_multiply_decode(a_bi, b_bi), bipolar_multiply(a_bi, b_bi).decode())


class TestSelection:
    def test_default_is_numpy(self):
        assert active_backend().name == "numpy"
        assert available_backends() == ["numpy", "threaded", "numba"]

    def test_env_variable_selects(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV_VAR, "threaded")
        assert active_backend().name == "threaded"

    def test_context_overrides_env(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV_VAR, "threaded")
        with use_backend("numpy"):
            assert active_backend().name == "numpy"
        assert active_backend().name == "threaded"

    def test_force_overrides_context_and_env(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV_VAR, "threaded")
        set_backend("numpy", force=True)
        with use_backend("threaded"):
            assert active_backend().name == "numpy"
        set_backend(None)
        assert active_backend().name == "threaded"

    def test_use_backend_none_is_noop(self):
        with use_backend(None) as backend:
            assert backend is active_backend()

    def test_contexts_nest_innermost_wins(self):
        with use_backend("threaded"):
            with use_backend("numpy"):
                assert active_backend().name == "numpy"
            assert active_backend().name == "threaded"

    def test_unknown_name_raises(self):
        with pytest.raises(ValueError, match="unknown SC kernel backend"):
            get_backend("cuda")
        with pytest.raises(ValueError, match="unknown SC kernel backend"):
            set_backend("cuda", force=True)
        with pytest.raises(ValueError, match="unknown SC kernel backend"):
            with use_backend("cuda"):
                pass  # pragma: no cover

    def test_unknown_env_name_warns_not_raises(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV_VAR, "nope")
        backends_mod._warned_unavailable.discard("nope")
        with pytest.warns(RuntimeWarning, match="falling back"):
            assert active_backend().name == "numpy"
        # Warned once per process, not per call.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert active_backend().name == "numpy"

    @pytest.mark.skipif(HAVE_NUMBA, reason="numba installed: no fallback to observe")
    def test_numba_absent_falls_back_with_warning(self):
        backends_mod._warned_unavailable.discard("numba")
        with pytest.warns(RuntimeWarning, match="numba"):
            backend = get_backend("numba")
        assert backend.name == "numpy"

    def test_describe_reports_identity(self):
        for name in IDENTITY_BACKENDS:
            info = get_backend(name).describe()
            assert info["name"] == name
            assert isinstance(get_backend(name), KernelBackend)


class TestSpecBackendField:
    def test_roundtrip_and_identity(self):
        spec = FsmGeluSpec(bitstream_length=64, backend="threaded")
        revived = spec_from_json(spec.to_json())
        assert revived == spec
        values = np.linspace(-2.0, 2.0, 12)
        base = build("gelu/fsm", spec=FsmGeluSpec(bitstream_length=64)).evaluate(values)
        routed = build("gelu/fsm", spec=spec).evaluate(values)
        assert np.array_equal(base, routed)

    def test_rejects_non_string(self):
        with pytest.raises(ValueError, match="backend"):
            FsmGeluSpec(backend=3)
