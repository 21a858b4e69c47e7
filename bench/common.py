"""Set-up shared by the benchmark's scripts.

Importing this module pins the BLAS thread count (it must come before numpy
is imported), puts the checkout's ``src/`` on the import path, and exits with
an error when the checkout has no ``src/taq``. It also names the benchmark's
checkpoint and the data it was trained on.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

# One BLAS thread: the matrices are small (d=64), and a single thread keeps
# run-to-run timing steady on a shared 2-vCPU host.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
if not (ROOT / "src" / "taq").is_dir():
    sys.exit(f"error: {ROOT / 'src' / 'taq'} not found; run from a checkout of the repository")
sys.path.insert(0, str(ROOT / "src"))

import hashlib  # noqa: E402

import numpy as np  # noqa: E402

from taq.model import param_shapes  # noqa: E402
from taq.tasks import TASK_IDS, ToyTask, gen_task  # noqa: E402

WEIGHTS = BENCH / "weights" / "toy_default.npz"
WEIGHTS_META = WEIGHTS.with_suffix(".json")

# The checkpoint is trained on these items. The benchmark drops any held-out
# item whose prompt occurs here, so evaluation never scores a training item.
TRAIN_DATA_SEED = 1_000_003
TRAIN_ITEMS_PER_TASK = 1024
TRAIN_SEED = 0


def training_items() -> list[tuple[list[int], list[int]]]:
    """The checkpoint's training items: all three tasks, task by task."""
    return [item for tid in TASK_IDS
            for item in gen_task(ToyTask(tid, seed=TRAIN_DATA_SEED), TRAIN_ITEMS_PER_TASK)]


def weights_digest(cfg, params: dict[str, np.ndarray]) -> str:
    """sha256 over every parameter's name and little-endian float64 bytes, in
    ``param_shapes`` order. It depends on the values only, not on how the
    .npz file was written."""
    h = hashlib.sha256()
    for name, _ in param_shapes(cfg):
        h.update(name.encode())
        h.update(np.ascontiguousarray(params[name], dtype="<f8").tobytes())
    return h.hexdigest()
