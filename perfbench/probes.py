"""Timing wraps the traced run puts around the program's public callables.

Nothing here edits the program: every probe replaces a callable on an
instance (or, for the few construction hooks, on a class or module) with a
timed wrapper for the length of a traced phase; the class and module hooks
are put back afterwards.

:class:`Clock` keeps one stack per thread, so every wrapped call knows how
much of its time its wrapped children took.  A bucket's *self* time is its
inclusive time minus that child time.  The model-layer buckets therefore
partition ``model.forward``; whatever no bucket claims stays in
``model.forward``'s own self time and is reported as ``model.other_ms``.
"""

from __future__ import annotations

import itertools
import threading
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional

#: Self-time buckets that partition ``model.forward`` (per forward batch).
#: ``faults.perturb`` is one of them: perturbation runs inside the SC
#: blocks, and is claimed here rather than left inside ``model.sc_softmax``.
MODEL_LAYERS = (
    "model.embed",
    "model.attn_linear",
    "model.attn_matmul",
    "model.sc_softmax",
    "model.sc_gelu",
    "model.mlp_linear",
    "model.norm",
    "model.head",
    "faults.perturb",
)


class Clock:
    """Inclusive time, self time, call count and optional samples per bucket.

    With ``alternate`` on, batches take turns: the outermost timed call on a
    thread (one forward batch, or one ``engine.run``) decides whether all of
    it is *traced* or is a *reference*.  A reference batch times only the
    wraps made with ``reference=True`` (whole batches), into buckets named
    ``reference.<bucket>``; every other wrap passes straight through.  Both
    kinds interleave one by one, so the host's drift in speed cancels when
    they are compared.  ``on_turn(traced)`` is called as each batch starts.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._local = threading.local()
        self.inclusive: Dict[str, float] = defaultdict(float)
        self.exclusive: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self.samples: Dict[str, List[float]] = defaultdict(list)
        self.alternate = False
        self.on_turn: Optional[Callable[[bool], None]] = None
        self._turns = itertools.count()

    def reset(self) -> None:
        """Drop everything recorded so far (the wraps stay in place)."""
        with self._lock:
            self.inclusive.clear()
            self.exclusive.clear()
            self.calls.clear()
            self.samples.clear()

    def _stack(self) -> List[float]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def turn(self) -> bool:
        """Whether the current call is timed in full; decided by the
        outermost call on this thread."""
        if not self.alternate:
            return True
        if not self._stack():
            self._local.traced = next(self._turns) % 2 == 1
            if self.on_turn is not None:
                self.on_turn(self._local.traced)
        return self._local.traced

    def enter(self) -> float:
        self._stack().append(0.0)
        return time.perf_counter()

    def leave(self, bucket: str, started: float, keep_sample: bool = False) -> float:
        elapsed = time.perf_counter() - started
        stack = self._stack()
        children = stack.pop()
        if stack:
            stack[-1] += elapsed
        with self._lock:
            self.inclusive[bucket] += elapsed
            self.exclusive[bucket] += elapsed - children
            self.calls[bucket] += 1
            if keep_sample:
                self.samples[bucket].append(elapsed)
        return elapsed

    def wrap(self, bucket: str, function: Callable, keep_sample: bool = False, reference: bool = False) -> Callable:
        def timed(*args: Any, **kwargs: Any):
            if self.turn():
                name = bucket
            elif reference:
                name = "reference." + bucket
            else:
                return function(*args, **kwargs)
            started = self.enter()
            try:
                return function(*args, **kwargs)
            finally:
                self.leave(name, started, keep_sample)

        timed.__wrapped__ = function
        return timed

    def wrap_batches(self, bucket: str, iter_batches: Callable) -> Callable:
        """Time every step of a batch generator as one sample of ``bucket``
        (each step is a whole batch, so it is timed in reference turns too).

        The step that ends the generator (restoring the patched model) is
        added to ``<bucket>.tail`` but is not a batch.
        """

        def timed(*args: Any, **kwargs: Any):
            generator = iter_batches(*args, **kwargs)
            while True:
                name = bucket if self.turn() else "reference." + bucket
                started = self.enter()
                try:
                    item = next(generator)
                except StopIteration:
                    self.leave(name + ".tail", started)
                    return
                except BaseException:
                    self.leave(name + ".tail", started)
                    raise
                self.leave(name, started, keep_sample=True)
                yield item

        return timed


def instrument_model(clock: Clock, model: Any) -> None:
    """Wrap the layers of one :class:`~repro.nn.vit.CompactVisionTransformer`."""

    def wrap(module: Any, bucket: str) -> None:
        module.forward = clock.wrap(bucket, module.forward)

    wrap(model, "model.forward")
    wrap(model.patch_embedding, "model.embed")
    for block in model.blocks:
        wrap(block.norm1, "model.norm")
        wrap(block.norm2, "model.norm")
        wrap(block.attention, "model.attn_matmul")
        wrap(block.attention.qkv, "model.attn_linear")
        wrap(block.attention.proj, "model.attn_linear")
        wrap(block.mlp.fc1, "model.mlp_linear")
        wrap(block.mlp.fc2, "model.mlp_linear")
    wrap(model.final_norm, "model.norm")
    wrap(model.head, "model.head")


def instrument_pipeline(clock: Clock, pipeline: Any, with_model: bool = True) -> None:
    """Wrap one :class:`~repro.eval_pipeline.ScViTEvalPipeline` (and its model,
    unless the model is shared and already wrapped)."""
    if with_model:
        instrument_model(clock, pipeline.model)
    circuit = pipeline.softmax_circuit
    circuit.forward = clock.wrap("model.sc_softmax", circuit.forward)
    if pipeline.gelu_block is not None:
        pipeline.gelu_block.evaluate = clock.wrap("model.sc_gelu", pipeline.gelu_block.evaluate)
        pipeline.gelu_block.process = clock.wrap("model.sc_gelu", pipeline.gelu_block.process)
    if pipeline.fault_model is not None:
        faults = pipeline.fault_model
        faults.perturb_stream = clock.wrap("faults.perturb", faults.perturb_stream)
    # Whole batches are timed in reference turns too.
    pipeline.predict_batch = clock.wrap("pipeline.predict", pipeline.predict_batch, keep_sample=True, reference=True)
    pipeline.iter_batches = clock.wrap_batches("pipeline.predict", pipeline.iter_batches)


def predict_ms_mean(clock: Clock, prefix: str = "") -> float:
    """Mean milliseconds per forward batch, the generator tail included;
    ``prefix="reference."`` gives the reference batches' mean."""
    bucket = prefix + "pipeline.predict"
    batches = len(clock.samples.get(bucket, ()))
    if batches == 0:
        return 0.0
    total = clock.inclusive.get(bucket, 0.0) + clock.inclusive.get(bucket + ".tail", 0.0)
    return 1e3 * total / batches


def layer_breakdown(clock: Clock) -> Optional[Dict[str, float]]:
    """Per-batch milliseconds of every model layer, ``model.other`` and
    ``pipeline.other``, or ``None`` when no instrumented batch ran."""
    batches = len(clock.samples.get("pipeline.predict", ()))
    if batches == 0:
        return None
    per_batch = {name: 1e3 * clock.exclusive.get(name, 0.0) / batches for name in MODEL_LAYERS}
    per_batch["model.other"] = 1e3 * clock.exclusive.get("model.forward", 0.0) / batches
    per_batch["pipeline.other"] = predict_ms_mean(clock) - 1e3 * clock.inclusive.get("model.forward", 0.0) / batches
    per_batch["faults.sites"] = clock.calls.get("faults.perturb", 0) / batches
    return per_batch
