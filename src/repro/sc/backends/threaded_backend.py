"""Multicore + batched-generation backend for the packed SC engine.

Two families of wins over the reference backend, both bit-identical:

* **Thread tiling** — numpy's bitwise/popcount ufuncs and the Generator
  bulk-fill loops release the GIL, so large planes are split along the
  value axis across a worker pool.  Bernoulli plane generation is split by
  *advancing* cloned bit generators to each chunk's offset (one PCG64
  ``advance`` step per double), which reproduces the exact uniform stream
  of a single contiguous draw.
* **Batched raw-word generation** — the fair-coin select draw
  ``rng.integers(0, 2, ...)`` spends most of its time in numpy's bounded-
  integers rejection machinery.  For a range of 2 that machinery reduces to
  "top bit of each buffered 32-bit draw", so the same bits can be read
  straight out of ``random_raw`` words at ~2x the speed.  The equivalence
  (including the generator's buffered half-word carry between calls) is
  **self-checked at runtime** against the canonical call for the concrete
  bit-generator type; any mismatch silently falls back to the canonical
  draw, so bit-identity can never regress even if numpy's internals change.

The FSM byte scan keeps the reference algorithm (its table gathers are
already vectorised over values) but tiles the value axis across the pool —
each worker scans its own row block independently, since rows never
interact through the counter state.
"""

from __future__ import annotations

import os
import sys
from concurrent.futures import ThreadPoolExecutor
from functools import lru_cache
from typing import Optional, Tuple

import numpy as np

from repro.sc.backends.base import KernelBackend

#: Below this many packed words a plane is not worth sending to the pool.
MIN_PARALLEL_WORDS = 1 << 14

#: Below this many Bernoulli draws the advance-split setup cost dominates.
MIN_PARALLEL_DRAWS = 1 << 16


def _clone_bitgen(bg) -> object:
    """Fresh bit generator of the same type carrying the same state."""
    clone = type(bg)()
    clone.state = bg.state
    return clone


@lru_cache(maxsize=8)
def _advance_split_supported(bitgen_cls) -> bool:
    """Does ``advance(n)`` reproduce a contiguous ``Generator.random`` draw?

    Checked once per bit-generator type with a throwaway instance: split a
    5-double draw as 2 + 3 via ``advance`` and compare against the
    contiguous draw.  True for PCG64/PCG64DXSM/Philox; generators without
    ``advance`` (MT19937, SFC64) return False and use the serial path.
    """
    if not hasattr(bitgen_cls, "advance"):
        return False
    try:
        probe = bitgen_cls(12345)
        ref = np.random.Generator(_clone_bitgen(probe)).random(5)
        head = np.random.Generator(_clone_bitgen(probe)).random(2)
        tail_bg = _clone_bitgen(probe)
        tail_bg.advance(2)
        tail = np.random.Generator(tail_bg).random(3)
        return bool(np.array_equal(ref, np.concatenate([head, tail])))
    except (TypeError, AttributeError, ValueError):  # pragma: no cover - exotic bitgens
        return False


@lru_cache(maxsize=8)
def _raw_select_supported(bitgen_cls) -> bool:
    """Does ``integers(0, 2, n)`` equal the top bits of the raw uint32 stream?

    numpy's bounded-integers path for a range of 2 buffers each 64-bit raw
    word into two 32-bit halves (low half first) and keeps the top bit of
    each — equivalent to ``random_raw(ceil(n/2)).view(uint32) >> 31`` on a
    little-endian host.  Verified once per bit-generator type with two
    probes: an even-sized raw draw followed by another raw draw, and an
    odd-sized raw draw (which must write the leftover half-word back into
    the generator's buffer) followed by the canonical call that consumes
    that buffer.  Both also check ``random()`` continuity afterwards; any
    mismatch means every select draw uses the canonical call instead.
    """
    if sys.byteorder != "little":  # pragma: no cover - big-endian hosts
        return False
    try:
        # Probe A: even draws stay raw end to end.
        probe = bitgen_cls(12345)
        ref_gen = np.random.Generator(_clone_bitgen(probe))
        ref = np.concatenate([ref_gen.integers(0, 2, size=128), ref_gen.integers(0, 2, size=6)])
        raw_bg = _clone_bitgen(probe)
        first = _raw_select_bits(raw_bg, 128)
        second = _raw_select_bits(raw_bg, 6)
        if first is None or second is None:
            return False
        if not np.array_equal(ref, np.concatenate([first, second]).astype(ref.dtype)):
            return False
        if not np.array_equal(ref_gen.random(3), np.random.Generator(raw_bg).random(3)):
            return False
        # Probe B: an odd draw leaves a buffered half-word that the next
        # canonical bounded draw must consume exactly as numpy would.
        probe = bitgen_cls(54321)
        ref_gen = np.random.Generator(_clone_bitgen(probe))
        ref = np.concatenate([ref_gen.integers(0, 2, size=129), ref_gen.integers(0, 2, size=8)])
        raw_bg = _clone_bitgen(probe)
        first = _raw_select_bits(raw_bg, 129)
        if first is None or raw_bg.state.get("has_uint32") != 1:
            return False
        follow_gen = np.random.Generator(raw_bg)
        second = follow_gen.integers(0, 2, size=8)
        if not np.array_equal(ref, np.concatenate([first.astype(ref.dtype), second])):
            return False
        return bool(np.array_equal(ref_gen.random(3), follow_gen.random(3)))
    except (TypeError, AttributeError, ValueError, KeyError):  # pragma: no cover
        return False


def _raw_select_bits(bg, n: int) -> Optional[np.ndarray]:
    """``n`` fair-coin bits from raw words, bit-identical to ``integers(0, 2, n)``.

    Returns ``None`` when the generator holds a buffered 32-bit half (only
    possible after an odd-sized bounded draw elsewhere) — the caller then
    uses the canonical call, which consumes that buffer first.  After an odd
    ``n`` the leftover high half of the last word is written back into the
    generator's buffer, exactly as the canonical path leaves it.
    """
    state = bg.state
    if state.get("has_uint32"):
        return None
    raw = bg.random_raw((n + 1) // 2)
    raw = np.atleast_1d(np.asarray(raw, dtype=np.uint64))
    if n % 2:
        state = bg.state
        state["has_uint32"] = 1
        state["uinteger"] = int(raw[-1] >> np.uint64(32))
        bg.state = state
    # Sign of the int32 view == top bit of the uint32 half; one compare pass
    # beats shift + astype, and packbits accepts the bool result directly.
    return raw.view(np.int32)[:n] < 0


class ThreadedBackend(KernelBackend):
    """Worker-pool + batched-generation backend (bit-identical fast paths)."""

    name = "threaded"

    def __init__(self, workers: Optional[int] = None) -> None:
        if workers is None:
            workers = os.cpu_count() or 1
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self.workers = int(workers)
        self._pool: Optional[ThreadPoolExecutor] = None

    # ------------------------------------------------------------- plumbing
    def describe(self) -> dict:
        return {"name": self.name, "workers": self.workers, "numpy": np.__version__}

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None

    def _ensure_pool(self) -> ThreadPoolExecutor:
        if self._pool is None:
            self._pool = ThreadPoolExecutor(
                max_workers=self.workers, thread_name_prefix="repro-sc"
            )
        return self._pool

    def _chunks(self, n: int) -> Tuple[Tuple[int, int], ...]:
        """Split ``range(n)`` into up to ``workers`` contiguous spans."""
        parts = min(self.workers, n)
        bounds = np.linspace(0, n, parts + 1, dtype=np.int64)
        return tuple(
            (int(bounds[i]), int(bounds[i + 1]))
            for i in range(parts)
            if bounds[i + 1] > bounds[i]
        )

    def _run_tiled(self, n: int, task) -> None:
        """Run ``task(start, stop)`` over row spans on the pool."""
        spans = self._chunks(n)
        if len(spans) == 1:
            task(*spans[0])
            return
        pool = self._ensure_pool()
        futures = [pool.submit(task, start, stop) for start, stop in spans]
        for future in futures:
            future.result()

    def _tile_binary(self, ufunc, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        if self.workers == 1 or a.size < MIN_PARALLEL_WORDS:
            return ufunc(a, b)
        out = np.empty_like(a)
        av, bv, ov = a.reshape(-1), b.reshape(-1), out.reshape(-1)

        def task(start: int, stop: int) -> None:
            ufunc(av[start:stop], bv[start:stop], out=ov[start:stop])

        self._run_tiled(av.size, task)
        return out

    # ------------------------------------------------------------- word ops
    def and_words(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return self._tile_binary(np.bitwise_and, a, b)

    def or_words(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return self._tile_binary(np.bitwise_or, a, b)

    def xor_words(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return self._tile_binary(np.bitwise_xor, a, b)

    def xnor_words(self, a: np.ndarray, b: np.ndarray, last_word_mask: np.uint64) -> np.ndarray:
        out = self._tile_binary(np.bitwise_xor, a, b)
        np.invert(out, out=out)
        out[..., -1] &= last_word_mask
        return out

    def mux_words(self, sel: np.ndarray, on_one: np.ndarray, on_zero: np.ndarray) -> np.ndarray:
        if self.workers == 1 or sel.size < MIN_PARALLEL_WORDS:
            return super().mux_words(sel, on_one, on_zero)
        out = np.empty_like(sel)
        sv = sel.reshape(-1)
        a_v, b_v, ov = on_one.reshape(-1), on_zero.reshape(-1), out.reshape(-1)

        def task(start: int, stop: int) -> None:
            s = sv[start:stop]
            ov[start:stop] = (s & a_v[start:stop]) | (~s & b_v[start:stop])

        self._run_tiled(sv.size, task)
        return out

    # ------------------------------------------------------------- popcount
    def popcount_reduce(self, words: np.ndarray) -> np.ndarray:
        if self.workers == 1 or words.ndim < 2 or words.size < MIN_PARALLEL_WORDS:
            return super().popcount_reduce(words)
        flat = words.reshape(-1, words.shape[-1])
        out = np.empty(flat.shape[0], dtype=np.int64)

        def task(start: int, stop: int) -> None:
            out[start:stop] = self.popcount_words(flat[start:stop]).sum(axis=-1, dtype=np.int64)

        self._run_tiled(flat.shape[0], task)
        return out.reshape(words.shape[:-1])

    def multiply_popcount(
        self, a: np.ndarray, b: np.ndarray, op: str, last_word_mask: np.uint64
    ) -> np.ndarray:
        if self.workers == 1 or a.ndim < 2 or a.size < MIN_PARALLEL_WORDS:
            return super().multiply_popcount(a, b, op, last_word_mask)
        if op not in ("and", "xnor"):
            raise ValueError(f"unknown multiply op {op!r} (expected 'and' or 'xnor')")
        av = a.reshape(-1, a.shape[-1])
        bv = b.reshape(-1, b.shape[-1])
        out = np.empty(av.shape[0], dtype=np.int64)

        def task(start: int, stop: int) -> None:
            if op == "and":
                prod = av[start:stop] & bv[start:stop]
            else:
                prod = ~(av[start:stop] ^ bv[start:stop])
                prod[..., -1] &= last_word_mask
            out[start:stop] = self.popcount_words(prod).sum(axis=-1, dtype=np.int64)

        self._run_tiled(av.shape[0], task)
        return out.reshape(a.shape[:-1])

    # ------------------------------------------------------ plane generation
    def bernoulli_plane(self, value_shape: Tuple[int, ...], length: int, probs, rng):
        from repro.sc.packed import PackedBitPlane, _words_for

        # A sequence of per-index generators goes to the reference kernel.
        if not isinstance(rng, np.random.Generator):
            return super().bernoulli_plane(value_shape, length, probs, rng)
        value_shape = tuple(value_shape)
        rows = int(np.prod(value_shape, dtype=np.int64)) if value_shape else 1
        total = rows * length
        bg = rng.bit_generator
        if (
            self.workers == 1
            or total < MIN_PARALLEL_DRAWS
            or rows < 2
            or not _advance_split_supported(type(bg))
            or bg.state.get("has_uint32")
        ):
            return super().bernoulli_plane(value_shape, length, probs, rng)

        p = np.asarray(probs, dtype=float)
        p_rows = np.broadcast_to(p, value_shape).reshape(rows) if p.ndim else None
        num_words = _words_for(length)
        packed_bytes = (length + 7) // 8
        out = np.zeros((rows, num_words * 8), dtype=np.uint8)

        def task(start: int, stop: int) -> None:
            chunk_bg = _clone_bitgen(bg)
            if start:
                chunk_bg.advance(start * length)
            draws = np.random.Generator(chunk_bg).random((stop - start, length))
            if p_rows is None:
                bits = draws < p
            else:
                bits = draws < p_rows[start:stop, None]
            out[start:stop, :packed_bytes] = np.packbits(bits, axis=-1, bitorder="little")

        self._run_tiled(rows, task)
        bg.advance(total)  # the original generator consumed every draw
        words = out.view(np.uint64).reshape(value_shape + (num_words,))
        return PackedBitPlane(words, length)

    def select_plane(self, value_shape: Tuple[int, ...], length: int, rng: np.random.Generator):
        from repro.sc.packed import PackedBitPlane, _words_for

        value_shape = tuple(value_shape)
        rows = int(np.prod(value_shape, dtype=np.int64)) if value_shape else 1
        total = rows * length
        bg = rng.bit_generator
        if not _raw_select_supported(type(bg)):
            return super().select_plane(value_shape, length, rng)
        num_raw = (total + 1) // 2
        if (
            self.workers > 1
            and num_raw >= MIN_PARALLEL_DRAWS
            and _advance_split_supported(type(bg))
            and not bg.state.get("has_uint32")
        ):
            raw = np.empty(num_raw, dtype=np.uint64)

            def task(start: int, stop: int) -> None:
                chunk_bg = _clone_bitgen(bg)
                if start:
                    chunk_bg.advance(start)
                raw[start:stop] = chunk_bg.random_raw(stop - start)

            self._run_tiled(num_raw, task)
            bg.advance(num_raw)
            if total % 2:
                state = bg.state
                state["has_uint32"] = 1
                state["uinteger"] = int(raw[-1] >> np.uint64(32))
                bg.state = state
            bits = raw.view(np.int32)[:total] < 0
        else:
            bits = _raw_select_bits(bg, total)
            if bits is None:  # pending buffered half-word: canonical path
                return super().select_plane(value_shape, length, rng)
        num_words = _words_for(length)
        packed_bytes = (length + 7) // 8
        out = np.zeros((rows, num_words * 8), dtype=np.uint8)
        out[:, :packed_bytes] = np.packbits(
            bits.reshape(rows, length), axis=-1, bitorder="little"
        )
        words = out.view(np.uint64).reshape(value_shape + (num_words,))
        return PackedBitPlane(words, length)

    # ------------------------------------------------------------------- FSM
    def fsm_trajectory(
        self,
        stream_bytes: np.ndarray,
        pre: np.ndarray,
        nxt: np.ndarray,
        initial_state: int,
        num_states: int,
    ) -> np.ndarray:
        flat = np.ascontiguousarray(stream_bytes).reshape(-1, stream_bytes.shape[-1])
        if self.workers == 1 or flat.shape[0] < 2 or flat.size < MIN_PARALLEL_WORDS:
            return super().fsm_trajectory(stream_bytes, pre, nxt, initial_state, num_states)
        out = np.empty(flat.shape + (8,), dtype=pre.dtype)

        def task(start: int, stop: int) -> None:
            out[start:stop] = KernelBackend.fsm_trajectory(
                self, flat[start:stop], pre, nxt, initial_state, num_states
            )

        self._run_tiled(flat.shape[0], task)
        return out.reshape(stream_bytes.shape + (8,))

    def fsm_forward_bytes(
        self,
        stream_bytes: np.ndarray,
        nxt: np.ndarray,
        outbyte: np.ndarray,
        initial_state: int,
        num_states: int,
    ) -> np.ndarray:
        flat = np.ascontiguousarray(stream_bytes).reshape(-1, stream_bytes.shape[-1])
        if self.workers == 1 or flat.shape[0] < 2 or flat.size < MIN_PARALLEL_WORDS:
            return super().fsm_forward_bytes(stream_bytes, nxt, outbyte, initial_state, num_states)
        out = np.empty(flat.shape, dtype=outbyte.dtype)

        def task(start: int, stop: int) -> None:
            out[start:stop] = KernelBackend.fsm_forward_bytes(
                self, flat[start:stop], nxt, outbyte, initial_state, num_states
            )

        self._run_tiled(flat.shape[0], task)
        return out.reshape(stream_bytes.shape)
