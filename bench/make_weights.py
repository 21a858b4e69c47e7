"""Train the benchmark's input checkpoint: the default ModelConfig trained for
DEFAULT_TRAIN_STEPS on all three tasks with fixed seeds.

    python3 bench/make_weights.py

Writes bench/weights/toy_default.npz (parameters keyed by name, in
``param_shapes`` order) and bench/weights/toy_default.json (config, seeds,
training summary, and the sha256 of the parameter values that the benchmark
verifies in set-up). Takes about three minutes on one core.
"""

from __future__ import annotations

import json
import time

from common import (TRAIN_DATA_SEED, TRAIN_ITEMS_PER_TASK, TRAIN_SEED, WEIGHTS, WEIGHTS_META,
                    training_items, weights_digest)

import numpy as np  # noqa: E402  (after common pins the BLAS threads)

from taq.model import (DEFAULT_TRAIN_STEPS, ModelConfig, init_model, param_shapes,  # noqa: E402
                       train_toy)


def main() -> None:
    cfg = ModelConfig()
    model = init_model(cfg)
    t0 = time.perf_counter()
    summary = train_toy(model, training_items(), steps=DEFAULT_TRAIN_STEPS, seed=TRAIN_SEED)
    train_s = time.perf_counter() - t0
    WEIGHTS.parent.mkdir(parents=True, exist_ok=True)
    np.savez(WEIGHTS, **{name: model.params[name] for name, _ in param_shapes(cfg)})
    meta = {
        "config": vars(cfg),
        "train_data_seed": TRAIN_DATA_SEED,
        "train_items_per_task": TRAIN_ITEMS_PER_TASK,
        "train_seed": TRAIN_SEED,
        "steps": DEFAULT_TRAIN_STEPS,
        "initial_loss": summary["initial_loss"],
        "final_loss": summary["final_loss"],
        "train_s": round(train_s, 1),
        "sha256": weights_digest(cfg, model.params),
    }
    WEIGHTS_META.write_text(json.dumps(meta, indent=2) + "\n")
    print(json.dumps(meta))


if __name__ == "__main__":
    main()
