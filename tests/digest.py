"""sha256 digests of what training, the forward pass and decoding compute.

Run from the repository root with the package under test on the path:

    PYTHONPATH=src python3 tests/digest.py

It prints one ``name sha256`` line per output; two checkouts compute the
same outputs bit for bit when every line matches. The outputs:

- ``train``: the loss and every gradient of each ``loss_and_grads`` call in
  3 x 100 ``train_toy`` steps, one run per seed 0-2 from ``init_model`` (a
  float32 model) on ``gen_task`` items of the three tasks;
- ``forward``: the logits of a 64-prompt batch on the seed-0 model after its
  100 steps, and the block outputs its ``capture`` sees;
- ``train.f64`` and ``forward.f64``: the same, from float64 copies of the
  float32 init, so the float64 path has a digest of its own;
- ``decode.<precision>``: ``greedy_decode`` of 48 held-out prompts on the
  float32 seed-0 model at full precision and with every layer at 4, 8 and
  16 bits;
- ``quant``: the codes, scales, zero-points and weights that
  ``quantize_tensor`` gives for each quantizable matrix of that model at 4,
  8 and 16 bits and group sizes 128, 100 (a short last group) and 2**20 (one
  group per matrix);
- ``init.default`` and ``init.odd``: every parameter ``init_model`` draws
  for the default config and for a config whose matrices have an odd
  number of weights, where ``normals`` drops the second normal of a pair;
- ``profile``: per task, every ``LayerStats`` field, the z-score flags and
  the ``allocate_rank`` plan of that model, from the ``spectral_entropy``
  of a ``Reservoir`` and the ``variance_and_stability`` of a
  ``StreamingMoments`` per layer, both fed the non-pad rows ``capture``
  sees over 64 fixed prompts.

It reads nothing from ``bench/``. BLAS is pinned to one thread, as the
benchmark pins it, so the digests do not depend on how a product is split
across threads; a run takes about 12 s.
"""

from __future__ import annotations

import hashlib
import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # before numpy is imported

import numpy as np  # noqa: E402

import taq.model  # noqa: E402
from taq.alloc import AllocConfig, CostModel, allocate_rank  # noqa: E402
from taq.linalg import SeededRng, Tensor  # noqa: E402
from taq.model import (ModelConfig, ToyModel, forward, greedy_decode, init_model,  # noqa: E402
                       layer_weight_counts, quantizable_names, train_toy)
from taq.quant import DEFAULT_GROUP_SIZE, quantize_tensor  # noqa: E402
from taq.stats import (DEFAULT_ALPHA, DEFAULT_BETA, DEFAULT_RESERVOIR_CAPACITY,  # noqa: E402
                       Reservoir, StreamingMoments, finalize_profile, spectral_entropy,
                       variance_and_stability)
from taq.tasks import PAD, TASK_IDS, ToyTask, gen_task  # noqa: E402

STEPS = 100
SEEDS = (0, 1, 2)
QUANT_GROUP_SIZES = (128, 100, 2**20)
ODD_CONFIG = ModelConfig(n_layers=2, d_model=9, n_heads=3, vocab=9, max_seq=8)


def task_items(seed: int, n: int) -> list[tuple[list[int], list[int]]]:
    return [it for tid in TASK_IDS for it in gen_task(ToyTask(tid, seed), n)]


def update(h, arr) -> None:
    arr = np.ascontiguousarray(arr)
    h.update(f"{arr.dtype.str}{arr.shape}".encode())
    h.update(arr.tobytes())


def train_digest(dtype) -> tuple[str, ToyModel]:
    """Digest of every loss and gradient over the training runs from the
    init cast to ``dtype``, and the seed-0 model they leave."""
    h = hashlib.sha256()
    inner = taq.model.loss_and_grads

    def recorded(*args):
        loss, grads = inner(*args)
        update(h, np.float64(loss))
        for name, g in grads.items():
            h.update(name.encode())
            update(h, g)
        return loss, grads

    models = []
    taq.model.loss_and_grads = recorded  # train_toy looks it up at each step
    try:
        for seed in SEEDS:
            model = init_model(ModelConfig(seed=seed))
            model = ToyModel(model.config, {k: v.astype(dtype) for k, v in model.params.items()})
            train_toy(model, task_items(100 + seed, 64), steps=STEPS, seed=seed)
            models.append(model)
    finally:
        taq.model.loss_and_grads = inner
    return h.hexdigest(), models[0]


def padded(prompts) -> np.ndarray:
    t = max(map(len, prompts))
    return np.array([list(p) + [PAD] * (t - len(p)) for p in prompts])


def forward_digest(model) -> str:
    tokens = padded([p for p, _ in task_items(7, 22)[:64]])
    h = hashlib.sha256()

    def capture(i, x):
        h.update(str(i).encode())
        update(h, x)

    update(h, forward(model, tokens, capture=capture))
    return h.hexdigest()


def decode_digest(model) -> str:
    prompts = [p for p, _ in task_items(8, 16)]
    return hashlib.sha256(repr(greedy_decode(model, prompts)).encode()).hexdigest()


def quant_digest(model) -> str:
    h = hashlib.sha256()
    for layer in range(model.config.n_layers):
        for name in quantizable_names(model.config, layer):
            for bits in (4, 8, 16):
                for group_size in QUANT_GROUP_SIZES:
                    q = quantize_tensor(Tensor(model.params[name]), bits, group_size)
                    h.update(f"{name} u{bits} g{group_size}".encode())
                    for arr in (q.codes, q.scale, q.zero_point, q.weights):
                        update(h, arr)
    return h.hexdigest()


def profile_digest(model) -> str:
    cfg = model.config
    cost_model = CostModel(layer_weight_counts(cfg))
    h = hashlib.sha256()
    for k, tid in enumerate(TASK_IDS):
        rng = SeededRng(k)
        reservoirs = [Reservoir(DEFAULT_RESERVOIR_CAPACITY, cfg.d_model, rng.derive(i))
                      for i in range(cfg.n_layers)]
        moments = [StreamingMoments() for _ in range(cfg.n_layers)]
        tokens = padded([p for p, _ in gen_task(ToyTask(tid, 9), 64)])
        mask = tokens != PAD  # no prompt token is PAD

        def capture(i, x):
            rows = x[mask]
            for row in rows:
                reservoirs[i].offer(row)
            moments[i].update(rows)

        forward(model, tokens, capture=capture)
        entropies, flags = zip(*map(spectral_entropy, reservoirs))
        variances = [variance_and_stability(m)[0] for m in moments]
        stats, zflags = finalize_profile(entropies, flags, variances, DEFAULT_ALPHA, DEFAULT_BETA)
        plan = allocate_rank([s.relevance for s in stats], AllocConfig(), cost_model)
        h.update(repr((tid, [vars(s) for s in stats], zflags, plan.bits, plan.cost)).encode())
    return h.hexdigest()


def init_digest(cfg: ModelConfig) -> str:
    h = hashlib.sha256()
    for name, values in init_model(cfg).params.items():
        h.update(name.encode())
        update(h, values)
    return h.hexdigest()


def main() -> None:
    train, model = train_digest(np.float32)
    print("train", train)
    print("forward", forward_digest(model))
    train, model64 = train_digest(np.float64)
    print("train.f64", train)
    print("forward.f64", forward_digest(model64))
    print("decode.fp32", decode_digest(model))
    layers = range(model.config.n_layers)
    for bits in (4, 8, 16):
        quantized = model.with_quantized_layers(dict.fromkeys(layers, bits), DEFAULT_GROUP_SIZE)
        print(f"decode.u{bits}", decode_digest(quantized))
    print("quant", quant_digest(model))
    print("init.default", init_digest(ModelConfig()))
    print("init.odd", init_digest(ODD_CONFIG))
    print("profile", profile_digest(model))


if __name__ == "__main__":
    main()
