"""Bit-flip fault injection on packed thermometer streams.

One of SC's headline claims is graceful degradation under bit-level noise: a
flipped stream bit shifts the decoded value by one grid step instead of
corrupting a whole word, so accuracy should fall smoothly with the flip rate
rather than collapse.  :class:`BitFlipFaultModel` measures that claim on the
end-to-end SC-ViT: every thermometer-stream interface of the emulated
circuits (the softmax ``x``/``y`` streams, the GELU input/output streams)
can be routed through :meth:`perturb_stream`, which

1. packs the batch's one-counts into a :class:`~repro.sc.packed.PackedBitPlane`
   (one table lookup per site per batch — no per-image packing),
2. draws the batch's Bernoulli(``flip_prob``) mask plane in **one kernel
   call per site** and XORs it onto the words, and
3. popcounts back to one-counts.

The mask draws stay per image by design — each image's rows of the mask
come from its own generator, passed to the kernel as a sequence of
generators, so batch composition can never change the draws (the
chunk-invariance contract below).  The cost is one uniform draw per stream
bit at the site plus one generator seeding per image and site.

Step 3 models the re-canonicalisation the hardware performs for free: every
stream is re-sorted by the next bitonic sorting network, and a sorted
stream's value is exactly its popcount, so only the *net* number of flips
survives — the physical reason SC degrades gracefully.

**Determinism.** The mask for image ``i`` at injection site ``s`` is drawn
from a generator seeded by ``derive_seed(derive_seed(seed, global image
index), site counter)``.  Site counters advance in model order (block 0
softmax sites, block 0 GELU sites, block 1 ...) and reset per forward pass,
so the fault pattern of an image depends only on ``(seed, image index)`` —
never on which batch the image rides in.  That is what lets the batched
pipeline reproduce the per-image path bit for bit even with faults enabled.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.runner.runner import derive_seed
from repro.sc.bitstream import ThermometerStream
from repro.sc.packed import PackedBitPlane

__all__ = ["BitFlipFaultModel"]


class BitFlipFaultModel:
    """Deterministic per-image bit-flip injection for thermometer streams.

    Parameters
    ----------
    flip_prob:
        Probability that any individual valid stream bit is flipped.
    seed:
        Root of the per-image seed derivation.
    """

    def __init__(self, flip_prob: float, seed: int = 0) -> None:
        if not 0.0 <= flip_prob <= 1.0:
            raise ValueError("flip_prob must lie in [0, 1]")
        self.flip_prob = float(flip_prob)
        self.seed = int(seed)
        self._image_seeds: Optional[np.ndarray] = None
        self._site = 0

    @property
    def enabled(self) -> bool:
        return self.flip_prob > 0.0

    # ------------------------------------------------------------- sequencing
    def begin_batch(self, image_indices: Sequence[int]) -> None:
        """Arm the model for one forward pass over the given global indices."""
        self._image_seeds = np.asarray(
            [derive_seed(self.seed, int(index)) for index in image_indices], dtype=np.int64
        )
        self._site = 0

    def _next_site(self) -> int:
        site = self._site
        self._site += 1
        return site

    # -------------------------------------------------------------- injection
    def perturb_counts(self, counts: np.ndarray, length: int) -> np.ndarray:
        """Flip bits of a batch of thermometer streams given as one-counts.

        ``counts`` has shape ``(B, ...)`` with axis 0 aligned to the image
        indices of :meth:`begin_batch`.  Returns the post-fault one-counts
        (popcount of the flipped packed plane).  Consumes one site counter
        even when ``flip_prob`` is zero, so enabling faults never re-orders
        the seed sequence of later sites.
        """
        site = self._next_site()
        if not self.enabled:
            return counts
        if self._image_seeds is None:
            raise RuntimeError("begin_batch must be called before perturbing streams")
        if counts.shape[0] != len(self._image_seeds):
            raise ValueError(
                f"leading axis {counts.shape[0]} does not match the armed batch "
                f"of {len(self._image_seeds)} images"
            )
        plane = PackedBitPlane.from_thermometer_counts(counts, length)
        # Each image's mask comes from its own generator (so chunking cannot
        # change the draws), but the whole batch's mask is one kernel call
        # and is applied as one word-wise XOR + popcount.
        rngs = [
            np.random.default_rng(derive_seed(int(image_seed), site))
            for image_seed in self._image_seeds
        ]
        mask = PackedBitPlane.random(counts.shape, length, self.flip_prob, rngs)
        return (plane ^ mask).popcount()

    def perturb_stream(self, stream: ThermometerStream) -> ThermometerStream:
        """Stream-level wrapper around :meth:`perturb_counts`."""
        if not self.enabled:
            self._next_site()
            return stream
        counts = self.perturb_counts(stream.counts, stream.length)
        return ThermometerStream(counts, stream.length, stream.scale, validate=False)
