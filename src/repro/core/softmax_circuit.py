"""SC circuit block for the iterative approximate softmax — Fig. 5 / Table II.

The circuit executes Algorithm 1 on thermometer-coded bitstreams.  Per
iteration and per vector element it instantiates (Fig. 5):

* **MUL ①** — truth-table multiplier computing ``z_i = x_i * y_i``,
* **BSN ①** — a global bitonic sorting network accumulating ``sum(z)`` over
  the ``m`` elements, sub-sampled by ``s1`` before it fans back out,
* **MUL ②** — multiplier computing ``y_i * sum(z)``, sub-sampled by ``s2``,
* two **re-scaling blocks** aligning the scaling factors of ``z_i / k`` and
  ``- y_i * sum(z) / k`` (the division by the constant ``k`` is free: it only
  divides the scaling factor),
* **BSN ②** — the final accumulation producing ``y_i^j``, re-encoded on the
  ``(By, alpha_y)`` output grid for the next iteration.

The functional emulation follows the same dataflow with the same
quantisation points: the products are exact on their product grids (that is
what a truth-table multiplier does), the two sub-sampling steps quantise on
grids coarsened by ``s1`` and ``s2``, and the iteration output is re-encoded
on the ``(By, alpha_y)`` grid.  Those are the only places the circuit loses
information, so they are the only places the emulation does.

Every quantity on that dataflow is a small integer level, so the emulation
works on one-count arrays.  Two step functions hold all of the numerics:
:func:`_sub_sampled_product` (BSN ① + ``s1``, MUL ② + ``s2``, a function of
the element's ``y`` level and its row's ``sum(z)`` level) and
:func:`_next_counts` (re-scaling + BSN ② + re-encode, a function of the
``y`` level, the ``x`` level and that product).  :class:`_SoftmaxTables`
evaluates both on their whole integer domains once per config, which turns
each iteration into one integer row sum and two table gathers — the
truth-table view of the same circuit.  A table is the step function sampled
on its grid, so the tabulated and the direct evaluation agree bit for bit.
A circuit compiles its tables in the first forward whose element count
covers them and reuses them from then on; until then (a large config on a
small batch, as in a one-shot design-space evaluation) it runs the step
functions on the level arrays directly.

The structural model (:meth:`IterativeSoftmaxCircuit.build_hardware`)
instantiates the same pieces through the :mod:`repro.hw` cost model; the
design space of Table II / Fig. 8 is swept by :mod:`repro.core.dse`.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.blocks.specs import (  # noqa: F401  (re-exported: historical home)
    SoftmaxCircuitConfig,
    calibrate_alpha_x,
    calibrate_alpha_y,
)
from repro.hw.netlist import ComponentInventory, HardwareModule
from repro.nn.functional_math import softmax_exact
from repro.sc.arithmetic import thermometer_multiplier_hardware
from repro.sc.bitstream import ThermometerStream
from repro.sc.encodings import thermometer_decode_counts, thermometer_encode_counts
from repro.sc.rescaling import RescalingBlock
from repro.sc.sorting_network import BitonicSortingNetwork

__all__ = [
    "SoftmaxCircuitConfig",
    "IterativeSoftmaxCircuit",
    "calibrate_alpha_x",
    "calibrate_alpha_y",
]

# ``SoftmaxCircuitConfig`` (and the two ``calibrate_alpha_*`` helpers) moved
# to :mod:`repro.blocks.specs` as the spec of the ``softmax/iterative``
# registry family; the imports above keep this module as a compatible home
# for historical callers.


def _max_abs_level(length: int) -> int:
    """Largest ``|count - L // 2|`` over counts in ``[0, L]``."""
    return length - length // 2


def _sub_sampled_product(cfg: SoftmaxCircuitConfig, y_levels, sum_levels) -> np.ndarray:
    """BSN ① + ``s1`` and MUL ② + ``s2``: the level of ``y_i * sum(z)``.

    BSN ① sorts the concatenated product streams and keeps every
    ``s1``-th bit — on signed levels a rounded division by ``s1``.  MUL ②
    multiplies exactly on its product grid and the ``s2`` sub-sampling
    rounds again.
    """
    sum_sub_levels = np.rint(sum_levels / cfg.s1).astype(np.int64)
    return np.rint(y_levels * sum_sub_levels / cfg.s2).astype(np.int64)


def _next_counts(cfg: SoftmaxCircuitConfig, y_levels, x_levels, prod_sub_levels) -> np.ndarray:
    """Re-scaling + BSN ② + re-encode: the one-count of ``y_i^{j+1}``.

    Accumulates ``y + (z - y * sum(z)) / k`` with ``z = x * y`` exact on the
    ``alpha_x * alpha_y`` grid (a truth-table multiplier adds no error) and
    re-encodes onto the ``(By, alpha_y)`` output grid; the division by ``k``
    is a pure scale change.
    """
    z_grid = cfg.alpha_x * cfg.alpha_y
    prod_grid = cfg.alpha_y * (z_grid * cfg.s1) * cfg.s2
    z_q = (x_levels * y_levels) * z_grid
    update = y_levels * cfg.alpha_y + (z_q - prod_sub_levels * prod_grid) / cfg.iterations
    return thermometer_encode_counts(update, cfg.by, cfg.alpha_y)


class _SoftmaxTables:
    """The step functions of one config, evaluated on their integer grids.

    * ``prod_sub[y, s]`` — :func:`_sub_sampled_product` for every ``y``
      count in ``[0, By]`` and row sum ``s`` in ``[-smax, smax]``;
    * ``next[y, x, p]`` — :func:`_next_counts` for every ``y`` count, ``x``
      count in ``[0, Bx]`` and sub-sampled product ``p`` in ``[-pmax, pmax]``;
    * ``decode[y]`` — the value of a final ``y`` count.

    Tables are stored flat, so a lookup is one ``take`` on a flat index,
    and in ``int32``: half-width arrays halve the hot loop's memory traffic.
    """

    def __init__(self, cfg: SoftmaxCircuitConfig, sum_max: int, prod_max: int) -> None:
        y_levels = np.arange(cfg.by + 1) - cfg.by // 2
        x_levels = np.arange(cfg.bx + 1) - cfg.bx // 2
        sums = np.arange(-sum_max, sum_max + 1)
        prod_sub = _sub_sampled_product(cfg, y_levels[:, None], sums[None, :])
        prods = np.arange(-prod_max, prod_max + 1)
        next_counts = _next_counts(
            cfg, y_levels[:, None, None], x_levels[None, :, None], prods[None, None, :]
        )
        self.sum_max = sum_max
        self.sum_stride = sums.size
        self.prod_max = prod_max
        self.prod_stride = prods.size
        self.prod_sub = prod_sub.astype(np.int32).ravel()
        self.next = next_counts.astype(np.int32).ravel()
        self.decode = thermometer_decode_counts(np.arange(cfg.by + 1), cfg.by, cfg.alpha_y)

    @classmethod
    def compile(cls, cfg: SoftmaxCircuitConfig, budget: int) -> Optional["_SoftmaxTables"]:
        """Tables for ``cfg``, or ``None`` when one would exceed ``budget`` entries."""
        budget = min(budget, np.iinfo(np.int32).max)  # int32 entries and indices
        sum_max = cfg.m * _max_abs_level(cfg.bx) * _max_abs_level(cfg.by)
        if (cfg.by + 1) * (2 * sum_max + 1) > budget:
            return None
        # rint is odd and monotone, so |p| peaks at the extreme y and sum.
        prod_max = int(_sub_sampled_product(cfg, _max_abs_level(cfg.by), sum_max))
        if (cfg.by + 1) * (cfg.bx + 1) * (2 * prod_max + 1) > budget:
            return None
        return cls(cfg, sum_max, prod_max)


def _hooked_counts(hook, site: str, counts: np.ndarray, length: int, scale: float) -> np.ndarray:
    """Route one stream interface through ``hook`` and take back its counts.

    The returned counts index the step tables, so a stream of another
    length or with counts outside ``[0, length]`` is rejected rather than
    silently wrapping a gather index.
    """
    stream = hook(site, ThermometerStream(counts, length, scale, validate=False))
    counts = stream.counts
    if stream.length != length:
        raise ValueError(f"stream hook changed the {site!r} stream length to {stream.length}")
    if counts.size and (counts.min() < 0 or counts.max() > length):
        raise ValueError(f"stream hook returned {site!r} counts outside [0, {length}]")
    return counts


class IterativeSoftmaxCircuit:
    """Functional + structural model of the ASCEND softmax block."""

    def __init__(self, config: SoftmaxCircuitConfig) -> None:
        if not config.is_feasible():
            raise ValueError(
                f"infeasible softmax circuit configuration: {config}"
            )
        self.config = config
        #: The config's step tables, compiled by the first forward they pay off in.
        self._step_tables: Optional[_SoftmaxTables] = None

    # -------------------------------------------------------------- simulate
    def forward(self, x: np.ndarray, stream_hook=None) -> np.ndarray:
        """Run the circuit on a batch of logit rows.

        ``x`` has shape ``(..., m)``; the returned array has the same shape
        and contains the decoded circuit outputs.

        The dataflow runs on one-count arrays: ``x`` is encoded once onto
        the ``(Bx, alpha_x)`` grid and ``y`` starts at the constant ``1/m``
        level.  Each of the ``k`` iterations is one integer row sum of
        ``x``-level times ``y``-level (MUL ① + BSN ①) followed by two
        lookups in the config's step tables — the sub-sampled ``y * sum(z)``
        level, then the re-encoded ``y`` count — and the final counts are
        decoded through a third table.  The tables are compiled by the first
        call in which no table has more entries than ``x.size * k``; before
        that the same step functions run on the level arrays.

        ``stream_hook``, when given, is called at every thermometer-stream
        interface of the dataflow — ``hook(site, stream) -> stream`` with
        ``site`` one of ``"x"`` (the encoded input), ``"y0"`` (the constant
        initial estimate) or ``"y<i>"`` (the re-encoded output of iteration
        ``i``), in that order — and the counts of its return value replace
        the stream's.  This is how the eval pipeline threads bit-flip fault
        injection through the circuit without the emulation ever
        special-casing faults; ``None`` (the default) keeps the exact
        historical numerics.  A returned stream must keep its length and
        its counts in ``[0, L]``; anything else raises ``ValueError``.
        """
        cfg = self.config
        x = np.asarray(x, dtype=float)
        if x.shape[-1] != cfg.m:
            raise ValueError(f"expected rows of length {cfg.m}, got {x.shape[-1]}")
        tables = self._step_tables
        if tables is None:
            # Tabulate once no table has more entries than this call has
            # element updates: each entry costs about one direct update, so
            # the build is at most one direct forward, and every later call
            # reuses it.
            tables = self._step_tables = _SoftmaxTables.compile(cfg, x.size * cfg.iterations)

        x_counts = thermometer_encode_counts(x, cfg.bx, cfg.alpha_x)
        if stream_hook is not None:
            x_counts = _hooked_counts(stream_hook, "x", x_counts, cfg.bx, cfg.alpha_x)
        # The table path indexes int32 tables (see _SoftmaxTables).
        dtype = np.int64 if tables is None else np.int32
        x_counts = x_counts.astype(dtype, copy=False)
        x_levels = x_counts - cfg.bx // 2

        # y^0 = 1/m, initialised as a constant bitstream.  The hardware pins
        # the initial count to the nearest non-zero level: if 1/m rounded to
        # zero the recurrence z = x * y could never leave the all-zero state.
        init_level = max(1, int(round((1.0 / cfg.m) / cfg.alpha_y)))
        init_level = min(init_level, cfg.by // 2)
        y_counts = np.full(x.shape, init_level + cfg.by // 2, dtype=dtype)
        if stream_hook is not None:
            y_counts = _hooked_counts(stream_hook, "y0", y_counts, cfg.by, cfg.alpha_y)

        if tables is not None:
            # Flat-index terms that do not change across iterations.
            next_x_base = x_counts * tables.prod_stride + tables.prod_max
            next_y_stride = (cfg.bx + 1) * tables.prod_stride
        for iteration in range(cfg.iterations):
            y_levels = y_counts - cfg.by // 2
            # MUL (1) + BSN (1): the exact row sum of z = x * y in levels.
            sum_levels = np.einsum("...i,...i->...", x_levels, y_levels)[..., None]
            if tables is None:
                prod_sub = _sub_sampled_product(cfg, y_levels, sum_levels)
                y_counts = _next_counts(cfg, y_levels, x_levels, prod_sub)
            else:
                prod_sub = tables.prod_sub.take(
                    y_counts * tables.sum_stride + (sum_levels + tables.sum_max)
                )
                y_counts = tables.next.take(y_counts * next_y_stride + next_x_base + prod_sub)
            if stream_hook is not None:
                y_counts = _hooked_counts(
                    stream_hook, f"y{iteration + 1}", y_counts, cfg.by, cfg.alpha_y
                )

        if tables is None:
            return thermometer_decode_counts(y_counts, cfg.by, cfg.alpha_y)
        return tables.decode.take(y_counts)

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return self.forward(x)

    def mean_absolute_error(self, x: np.ndarray) -> float:
        """MAE of the circuit against the exact softmax on a batch of rows."""
        x = np.asarray(x, dtype=float)
        return float(np.mean(np.abs(self.forward(x) - softmax_exact(x, axis=-1))))

    # -------------------------------------------------------------- hardware
    def build_compute_unit(self) -> HardwareModule:
        """One of the ``m`` per-element compute units of Fig. 5."""
        cfg = self.config
        mul1 = thermometer_multiplier_hardware(cfg.bx, cfg.by, name="mul1")
        mul2 = thermometer_multiplier_hardware(cfg.by, cfg.sum_length, name="mul2")
        # Streams whose length is not a multiple of the sub-sample rate are
        # padded up to the next multiple, exactly as in the functional model.
        padded_prod = cfg.prod_length * cfg.s2
        rescale1 = RescalingBlock(padded_prod, cfg.s2).build_hardware("rescale_prod")
        rescale2 = RescalingBlock(max(cfg.z_length, 2), 1).build_hardware("rescale_z")
        # BSN (2) adds y (By bits), z/k and -y*sum(z)/k after re-scaling; its
        # width is the concatenation of the three aligned streams.
        bsn2_width = cfg.by + cfg.z_length + cfg.prod_length
        bsn2 = BitonicSortingNetwork(bsn2_width).build_hardware(name="bsn2")
        inventory = ComponentInventory({"DFF": cfg.by, "INV": cfg.prod_length})
        return HardwareModule(
            name="softmax_compute_unit",
            inventory=inventory,
            critical_path=("DFF",),
            cycles=1,
            submodules=[(mul1, 1), (mul2, 1), (rescale1, 1), (rescale2, 1), (bsn2, 1)],
            pipelined=True,
            metadata={"by": cfg.by, "bx": cfg.bx, "bsn2_width": bsn2_width},
        )

    def build_hardware(self) -> HardwareModule:
        """The whole softmax block: ``m`` compute units plus the global BSN ①.

        The critical path of one iteration chains MUL ① → BSN ① → re-scale →
        MUL ② → re-scale → BSN ②; the block needs ``k`` iterations per
        softmax row, so the latency is ``k`` times that path.
        """
        cfg = self.config
        unit = self.build_compute_unit()
        bsn1 = BitonicSortingNetwork(cfg.sum_length_raw).build_hardware(name="bsn1")

        # Chain the per-iteration critical path explicitly (cell names).
        mul1_sorter_depth = BitonicSortingNetwork(max(cfg.z_length, 2)).depth
        mul2_sorter_depth = BitonicSortingNetwork(max(cfg.by * cfg.sum_length // 2, 2)).depth
        bsn2_depth = BitonicSortingNetwork(cfg.by + cfg.z_length + cfg.prod_length).depth
        path = (
            ["AND2", "XOR2"] + ["SORT_CE"] * mul1_sorter_depth  # MUL 1
            + ["SORT_CE"] * BitonicSortingNetwork(cfg.sum_length_raw).depth  # BSN 1
            + ["BUF"]  # s1 re-scaling tap
            + ["AND2", "XOR2"] + ["SORT_CE"] * mul2_sorter_depth  # MUL 2
            + ["BUF"]  # s2 re-scaling tap
            + ["SORT_CE"] * bsn2_depth  # BSN 2
            + ["DFF"]
        )
        inventory = ComponentInventory({"DFF": cfg.m * cfg.by})
        return HardwareModule(
            name=f"ascend_softmax_m{cfg.m}_bx{cfg.bx}_by{cfg.by}",
            inventory=inventory,
            critical_path=tuple(path),
            cycles=cfg.iterations,
            submodules=[(unit, cfg.m), (bsn1, 1)],
            pipelined=True,
            metadata={
                "m": cfg.m,
                "iterations": cfg.iterations,
                "bx": cfg.bx,
                "by": cfg.by,
                "alpha_x": cfg.alpha_x,
                "alpha_y": cfg.alpha_y,
                "s1": cfg.s1,
                "s2": cfg.s2,
            },
        )
