"""The :class:`KernelBackend` protocol and its pure-numpy reference kernels.

A backend owns the handful of hot kernels the packed SC engine is built
from: word-wise gate ops, popcount reduction, Bernoulli/select plane
generation, the FSM transition scan and the BSN compare-exchange stage.
The base class *is* the reference implementation — every method body here
is the exact algorithm the engine used before the backend seam existed, so
:class:`~repro.sc.backends.numpy_backend.NumpyBackend` (the default) is a
trivial subclass and stays byte-identical to the historical code paths.

Subclasses may override any kernel with a faster implementation, but the
contract is strict: **every backend must produce bit-identical results**
for identical inputs (including identical RNG consumption, so a seeded
experiment decodes to the same floats regardless of backend).  The
packed-vs-legacy property suite runs against every registered backend to
enforce this.
"""

from __future__ import annotations

import math
from typing import Sequence, Tuple, Union

import numpy as np

#: Uniforms drawn per chunk by the reference ``bernoulli_plane`` (a 256 KB
#: float64 scratch buffer, allocated per call so concurrent callers never
#: share one).
BERNOULLI_CHUNK = 1 << 15


class KernelBackend:
    """Kernel provider for the packed SC engine (reference implementations).

    Instances are stateless apart from optional worker pools; one instance
    per backend name is cached by the registry and shared process-wide.
    """

    #: Registry name; subclasses override.
    name = "base"

    # ------------------------------------------------------------- metadata
    def describe(self) -> dict:
        """Backend facts recorded into bench reports (JSON-serialisable)."""
        return {"name": self.name}

    def close(self) -> None:
        """Release any worker pools (no-op for poolless backends)."""

    # ------------------------------------------------------------- word ops
    def and_words(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Bitwise AND of two word planes (unipolar multiply)."""
        return a & b

    def or_words(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Bitwise OR of two word planes."""
        return a | b

    def xor_words(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Bitwise XOR of two word planes."""
        return a ^ b

    def invert_words(self, words: np.ndarray, last_word_mask: np.uint64) -> np.ndarray:
        """Bitwise NOT with the tail of the last word re-masked to zero."""
        out = ~words
        out[..., -1] &= last_word_mask
        return out

    def xnor_words(self, a: np.ndarray, b: np.ndarray, last_word_mask: np.uint64) -> np.ndarray:
        """Word-wise XNOR (bipolar multiply) with the tail re-masked."""
        out = ~(a ^ b)
        out[..., -1] &= last_word_mask
        return out

    def mux_words(self, sel: np.ndarray, on_one: np.ndarray, on_zero: np.ndarray) -> np.ndarray:
        """Per-bit 2:1 MUX (the SC scaled adder)."""
        return (sel & on_one) | (~sel & on_zero)

    # ------------------------------------------------------------- popcount
    def popcount_words(self, words: np.ndarray) -> np.ndarray:
        """Population count per word.

        Delegates to :func:`repro.sc.packed.popcount_words` so the
        ``HAVE_BITWISE_COUNT`` feature switch (and its byte-LUT fallback)
        stays a single module-level knob shared by every backend.
        """
        from repro.sc import packed

        return packed.popcount_words(words)

    def popcount_reduce(self, words: np.ndarray) -> np.ndarray:
        """Number of set bits per stream: popcount summed over the word axis."""
        return self.popcount_words(words).sum(axis=-1, dtype=np.int64)

    def multiply_popcount(
        self, a: np.ndarray, b: np.ndarray, op: str, last_word_mask: np.uint64
    ) -> np.ndarray:
        """Fused multiply + decode: gate two planes and popcount in one pass.

        ``op`` is ``"and"`` (unipolar) or ``"xnor"`` (bipolar).  Fusing skips
        the intermediate product plane the separate multiply/decode calls
        materialise; the counts are bit-identical to popcounting the product.
        """
        if op == "and":
            return self.popcount_reduce(a & b)
        if op == "xnor":
            prod = ~(a ^ b)
            prod[..., -1] &= last_word_mask
            return self.popcount_reduce(prod)
        raise ValueError(f"unknown multiply op {op!r} (expected 'and' or 'xnor')")

    # ------------------------------------------------------ plane generation
    def bernoulli_plane(
        self,
        value_shape: Tuple[int, ...],
        length: int,
        probs,
        rng: Union[np.random.Generator, Sequence[np.random.Generator]],
    ):
        """Packed plane of Bernoulli draws: bit ``t`` of value ``v`` is
        ``rng.random() < probs[v]``.

        This is the canonical encode draw: one uniform per (value, cycle) in
        C order, consumed from ``rng`` exactly as the explicit-bit
        implementation always has, so seeded streams are reproducible across
        versions *and* backends.  ``probs`` is a scalar or an array of shape
        ``value_shape``.

        ``rng`` may also be a sequence of generators, one per index of
        ``value_shape[0]``: generator ``i`` then draws the values under index
        ``i``, so the plane equals stacking the per-index single-generator
        planes (the per-image fault masks draw this way in one call).

        Draws are taken ``BERNOULLI_CHUNK`` uniforms at a time into a per-call
        scratch buffer with ``Generator.random(out=...)``, which consumes
        exactly what one contiguous draw would.  Each chunk is compared in
        place and packed straight into the ``ceil(L / 8)`` live bytes of its
        streams' words.
        """
        from repro.sc.packed import _NATIVE_LITTLE_ENDIAN, PackedBitPlane, _words_for

        value_shape = tuple(value_shape)
        if isinstance(rng, np.random.Generator):
            rngs = [rng]
            rows_per_rng = math.prod(value_shape)
        else:
            rngs = list(rng)
            if not value_shape or len(rngs) != value_shape[0]:
                raise ValueError(
                    f"need one generator per index of axis 0 of {value_shape}, "
                    f"got {len(rngs)}"
                )
            rows_per_rng = math.prod(value_shape[1:])
        rows = rows_per_rng * len(rngs)
        num_words = _words_for(length)
        words = np.zeros((rows, num_words), dtype=np.uint64)
        p = np.asarray(probs, dtype=float)
        if p.ndim and p.shape != value_shape:
            p = np.broadcast_to(p, value_shape)
        p_rows = p.reshape(rows, 1) if p.ndim else p

        # Streams of 1, 2, 4 or 8 bits share bytes: one flat compare + packbits
        # puts ``8 // L`` streams in each byte, which are then shifted out
        # into their words.  Other lengths pad each row to whole bytes in the
        # bit buffer (the pad columns are never written, so they stay zero)
        # and land in the words' byte view.
        per_byte = 8 // length if 8 % length == 0 else 0
        live_bytes = (length + 7) // 8
        chunk_rows = max(1, BERNOULLI_CHUNK // length)
        buffer_rows = min(chunk_rows, rows)
        draws = np.empty(buffer_rows * length)
        if per_byte:
            bits = np.zeros(-(-buffer_rows * length // 8) * 8, dtype=bool)
        else:
            bits = np.zeros((buffer_rows, live_bytes * 8), dtype=bool)
            word_bytes = words.view(np.uint8)
        field = np.uint8((1 << length) - 1) if per_byte else None
        for start in range(0, rows, chunk_rows):
            stop = min(start + chunk_rows, rows)
            n = stop - start
            row = start
            while row < stop:
                index = row // rows_per_rng
                seg_stop = min(stop, (index + 1) * rows_per_rng)
                rngs[index].random(out=draws[(row - start) * length:(seg_stop - start) * length])
                row = seg_stop
            chunk_draws = draws[: n * length].reshape(n, length)
            chunk_p = p_rows[start:stop] if p.ndim else p
            if per_byte:
                live_bits = -(-n * length // 8) * 8
                np.less(chunk_draws, chunk_p, out=bits[: n * length].reshape(n, length))
                bits[n * length:live_bits] = False
                packed = np.packbits(bits[:live_bits], bitorder="little")
                for j in range(per_byte):
                    lane = words[start + j:stop:per_byte, 0]
                    lane[:] = (packed[: lane.size] >> np.uint8(j * length)) & field
            else:
                np.less(chunk_draws, chunk_p, out=bits[:n, :length])
                packed = np.packbits(bits[:n], bitorder="little")
                word_bytes[start:stop, :live_bytes] = packed.reshape(n, live_bytes)
        if not per_byte and not _NATIVE_LITTLE_ENDIAN:  # pragma: no cover - big-endian hosts
            words = words.byteswap()
        return PackedBitPlane(words.reshape(value_shape + (num_words,)), length)

    def select_plane(self, value_shape: Tuple[int, ...], length: int, rng: np.random.Generator):
        """Packed fair-coin select plane for the MUX scaled adder.

        The canonical draw is ``rng.integers(0, 2, size=value_shape + (L,))``
        — kept verbatim so seeded ``mux_scaled_add`` results never move.
        """
        from repro.sc.packed import PackedBitPlane

        select = rng.integers(0, 2, size=tuple(value_shape) + (length,)).astype(np.uint8)
        return PackedBitPlane.from_bits(select)

    # ------------------------------------------------------------------- FSM
    def fsm_trajectory(
        self,
        stream_bytes: np.ndarray,
        pre: np.ndarray,
        nxt: np.ndarray,
        initial_state: int,
        num_states: int,
    ) -> np.ndarray:
        """Counter state before every cycle, shape ``(..., num_bytes, 8)``.

        ``stream_bytes`` is the packed plane's byte view (8 stream bits per
        byte, zero tail included); ``pre``/``nxt`` are the byte-granular
        transition tables of the saturating counter (see
        :func:`repro.sc.fsm._fsm_scan_tables`).
        """
        num_bytes = stream_bytes.shape[-1]
        state = np.full(stream_bytes.shape[:-1], initial_state, dtype=np.intp)
        trajectory = np.empty(stream_bytes.shape[:-1] + (num_bytes, 8), dtype=np.uint8)
        for t in range(num_bytes):
            chunk = stream_bytes[..., t]
            trajectory[..., t, :] = pre[state, chunk]
            state = nxt[state, chunk].astype(np.intp)
        return trajectory

    def fsm_forward_bytes(
        self,
        stream_bytes: np.ndarray,
        nxt: np.ndarray,
        outbyte: np.ndarray,
        initial_state: int,
        num_states: int,
    ) -> np.ndarray:
        """Fused FSM forward: output *bytes* straight from the byte scan.

        ``outbyte[s, b]`` packs the 8 output bits the unit emits while
        consuming input byte ``b`` entered in state ``s`` (valid whenever the
        output rule's cycle dependence has period dividing 8, which the
        caller checks).  Skips materialising the per-cycle trajectory and the
        rule evaluation over the whole stream.
        """
        num_bytes = stream_bytes.shape[-1]
        state = np.full(stream_bytes.shape[:-1], initial_state, dtype=np.intp)
        out = np.empty_like(stream_bytes)
        for t in range(num_bytes):
            chunk = stream_bytes[..., t]
            out[..., t] = outbyte[state, chunk]
            state = nxt[state, chunk].astype(np.intp)
        return out

    # ------------------------------------------------------------------- BSN
    def bsn_stage(self, a: np.ndarray, b: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """One compare-exchange stage on single-bit lanes: (max, min) = (OR, AND)."""
        return a | b, a & b
