"""Workload definitions, the image universe, golden predictions, host metadata.

Everything a run needs before it touches the program under test: the
workload table (``workloads.json``), the metric table (``BENCHMARK.json``
at the repository root), the fixed image universe every request is drawn
from, and the committed golden predictions each served or evaluated
prediction is checked against.
"""

from __future__ import annotations

import ctypes
import hashlib
import json
import os
import platform
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, Optional

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS_FILE = HERE / "workloads.json"
GOLDEN_FILE = HERE / "golden.json"
BENCHMARK_FILE = ROOT / "BENCHMARK.json"


class SourceMissing(RuntimeError):
    """The checkout holds no ``src/repro`` package to benchmark."""


def import_program() -> None:
    """Put the checkout's ``src`` first on ``sys.path`` and import ``repro``.

    Refuses to fall back to any other installed copy: the benchmark
    measures the source tree next to it or nothing.
    """
    package = SRC / "repro" / "__init__.py"
    if not package.is_file():
        raise SourceMissing(f"no program source at {package.relative_to(ROOT)}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve() != package.resolve():
        raise SourceMissing(f"imported repro from {repro.__file__}, not from {SRC}")


def load_json(path: Path) -> Dict[str, Any]:
    return json.loads(path.read_text())


def workload_table() -> Dict[str, Any]:
    return load_json(WORKLOADS_FILE)


def metric_table() -> Dict[str, Any]:
    """``{"end_to_end": {name: unit}, "per_layer": {name: unit}}``."""
    bench = load_json(BENCHMARK_FILE)
    return {
        kind: {row["name"]: row["unit"] for row in bench[kind]} for kind in ("end_to_end", "per_layer")
    }


def serve_spec(definition: Dict[str, Any]):
    """The workload's :class:`~repro.serve.ServeSpec` (defaults + overrides)."""
    from repro.serve import ServeSpec

    return ServeSpec.from_dict(definition["spec"])


def universe(table: Dict[str, Any]):
    """The fixed image pool (a :class:`~repro.training.datasets.DatasetSplit`)."""
    from repro.training.datasets import synthetic_cifar10

    params = table["universe"]
    _, test = synthetic_cifar10(train_size=params["train_size"], test_size=params["test_size"], seed=params["seed"])
    return test


def permutation(seed: int, size: int) -> np.ndarray:
    """The seed's order over the universe (the only thing a seed varies)."""
    return np.random.default_rng([20241017, int(seed)]).permutation(size)


# ---------------------------------------------------------------------------
# Golden predictions
# ---------------------------------------------------------------------------


class GoldenError(ValueError):
    """The committed golden predictions fail their own integrity check."""


def digest(predictions: str) -> str:
    return hashlib.sha256(predictions.encode("ascii")).hexdigest()


@dataclass
class Golden:
    """Committed per-image predictions, one decimal digit per image.

    ``sha256`` is the digest of ``predictions``; a golden whose digest does
    not match its text is refused before anything is compared against it.
    """

    predictions: str
    sha256: str

    def __post_init__(self) -> None:
        if not self.predictions or not self.predictions.isdigit():
            raise GoldenError("golden predictions must be a non-empty digit string")
        if digest(self.predictions) != self.sha256:
            raise GoldenError("golden predictions do not match their sha256 digest")
        self.values = np.frombuffer(self.predictions.encode("ascii"), dtype=np.uint8).astype(np.int64) - 48

    def __len__(self) -> int:
        return int(self.values.size)

    def mismatches(self, positions: np.ndarray, predictions: np.ndarray) -> int:
        """How many ``predictions`` differ from the golden at ``positions``."""
        expected = self.values[np.asarray(positions, dtype=np.int64)]
        return int(np.count_nonzero(expected != np.asarray(predictions, dtype=np.int64)))


def load_golden(name: str) -> Golden:
    """One committed golden; refused if it was made over another image
    universe than ``workloads.json`` describes."""
    document = load_json(GOLDEN_FILE)
    if document["universe"] != workload_table()["universe"]:
        raise GoldenError("golden predictions were made over another image universe")
    entry = document["goldens"][name]
    return Golden(predictions=entry["predictions"], sha256=entry["sha256"])


# ---------------------------------------------------------------------------
# Host metadata
# ---------------------------------------------------------------------------


def _blas_threads() -> Optional[int]:
    """OpenBLAS's current thread count, looked up through numpy's own library."""
    try:
        library = ctypes.CDLL(np._core._multiarray_umath.__file__)
    except (AttributeError, OSError):
        return None
    for symbol in (
        "scipy_openblas_get_num_threads64_",
        "scipy_openblas_get_num_threads",
        "openblas_get_num_threads64_",
        "openblas_get_num_threads",
    ):
        function = getattr(library, symbol, None)
        if function is not None:
            function.restype = ctypes.c_int
            return int(function())
    return None


def host_metadata() -> Dict[str, Any]:
    from repro.sc.backends import HAVE_NUMBA, active_backend

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_info = {"name": blas.get("name"), "version": blas.get("version")}
        config = blas.get("openblas configuration", "")
        if "MAX_THREADS=" in config:
            blas_info["max_threads"] = int(config.split("MAX_THREADS=")[1].split()[0])
    except (KeyError, TypeError, ValueError):
        blas_info = {}
    blas_info["threads"] = _blas_threads()
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_info,
        "sc_backend": active_backend().name,
        "numba": bool(HAVE_NUMBA),
        "machine": platform.machine(),
    }
