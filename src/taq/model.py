"""Deterministic decoder-only toy transformer in plain numpy.

Pre-norm blocks (LayerNorm, causal multi-head attention, ReLU MLP, residual
connections), learned positional embeddings, no biases on the linear maps.
Forward, analytic backward, SGD training with gradient clipping, greedy
decoding, and EM / token-F1 evaluation all live here. Activation capture
hooks observe each block's post-residual output without altering results.

Quantized execution swaps a layer's weight matrices for the dequantized
weights of their QTensors; everything else is unchanged.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .errors import InvalidConfig, InvalidInput, InvalidPlan, TrainingDiverged
from .linalg import SeededRng, Tensor
from .quant import QTensor, quantize_tensor
from .tasks import EOS, PAD, full_sequence

PARAM_INIT_STD = 0.02
LN_EPS = 1e-5
NEG_INF = -1e30
DEFAULT_TRAIN_STEPS = 3000
DEFAULT_LR = 0.5
DEFAULT_BATCH = 16
GRAD_CLIP_NORM = 1.0
DEFAULT_MAX_NEW_TOKENS = 16

_INIT_TAG = 11
_TRAIN_TAG = 13


@dataclass(frozen=True)
class ModelConfig:
    n_layers: int = 8
    d_model: int = 64
    n_heads: int = 4
    vocab: int = 64
    max_seq: int = 32
    seed: int = 0

    def __post_init__(self):
        if self.d_model % self.n_heads != 0:
            raise InvalidConfig(
                f"d_model {self.d_model} not divisible by n_heads {self.n_heads}")
        if self.n_layers < 5:
            raise InvalidConfig(
                f"n_layers must be >= 5 for edge pinning, got {self.n_layers}")
        if self.vocab < 8 or self.max_seq < 4:
            raise InvalidConfig("vocab must be >= 8 and max_seq >= 4")


def _layer_param_shapes(cfg: ModelConfig, i: int) -> list[tuple[str, tuple[int, int]]]:
    d = cfg.d_model
    return [
        (f"layer{i}.ln1.g", (1, d)),
        (f"layer{i}.ln1.b", (1, d)),
        (f"layer{i}.attn.wq", (d, d)),
        (f"layer{i}.attn.wk", (d, d)),
        (f"layer{i}.attn.wv", (d, d)),
        (f"layer{i}.attn.wo", (d, d)),
        (f"layer{i}.ln2.g", (1, d)),
        (f"layer{i}.ln2.b", (1, d)),
        (f"layer{i}.mlp.w1", (d, 4 * d)),
        (f"layer{i}.mlp.w2", (4 * d, d)),
    ]


def param_shapes(cfg: ModelConfig) -> list[tuple[str, tuple[int, int]]]:
    """All parameter names and shapes in canonical (checkpoint) order."""
    shapes = [
        ("embed.tok", (cfg.vocab, cfg.d_model)),
        ("embed.pos", (cfg.max_seq, cfg.d_model)),
    ]
    for i in range(cfg.n_layers):
        shapes.extend(_layer_param_shapes(cfg, i))
    shapes.append(("ln_f.g", (1, cfg.d_model)))
    shapes.append(("ln_f.b", (1, cfg.d_model)))
    shapes.append(("unembed.w", (cfg.d_model, cfg.vocab)))
    return shapes


def quantizable_names(cfg: ModelConfig, layer: int) -> list[str]:
    """The 2-D attention and MLP weight matrices of one block. LayerNorm
    parameters, embeddings, and the unembedding stay full precision."""
    return [f"layer{layer}.attn.{w}" for w in ("wq", "wk", "wv", "wo")] + \
           [f"layer{layer}.mlp.{w}" for w in ("w1", "w2")]


def layer_weight_counts(cfg: ModelConfig) -> tuple[int, ...]:
    per_layer = 4 * cfg.d_model * cfg.d_model + 2 * cfg.d_model * 4 * cfg.d_model
    return tuple([per_layer] * cfg.n_layers)


class ToyModel:
    """Parameters plus optional per-tensor quantization overrides.

    ``params`` maps names to float64 arrays and is never read through when a
    name has a QTensor override; overrides execute via their dequantized
    weights.
    """

    def __init__(self, config: ModelConfig, params: dict[str, np.ndarray],
                 qtensors: dict[str, QTensor] | None = None):
        self.config = config
        self.params = params
        self.qtensors: dict[str, QTensor] = qtensors or {}

    def weight(self, name: str) -> np.ndarray:
        qt = self.qtensors.get(name)
        if qt is not None:
            return qt.weights
        return self.params[name]

    def clone_params(self) -> dict[str, np.ndarray]:
        return {k: v.copy() for k, v in self.params.items()}

    def with_quantized_layers(self, layer_bits: dict[int, int], group_size: int) -> "ToyModel":
        """New model sharing full-precision params, with the given layers'
        weight matrices quantized at the given bitwidths (min-max fit)."""
        qtensors = {}
        for layer, bits in layer_bits.items():
            if not (0 <= layer < self.config.n_layers):
                raise InvalidPlan(f"layer {layer} outside model with "
                                  f"{self.config.n_layers} layers")
            for name in quantizable_names(self.config, layer):
                qtensors[name] = quantize_tensor(
                    Tensor(self.params[name], label=name), bits, group_size)
        return ToyModel(self.config, self.params, qtensors)


def init_model(cfg: ModelConfig) -> ToyModel:
    """Seeded init: normals with std 0.02 for weights, identity layer norms."""
    rng = SeededRng(cfg.seed).derive(_INIT_TAG)
    params: dict[str, np.ndarray] = {}
    for name, shape in param_shapes(cfg):
        if name.endswith(".g"):
            params[name] = np.ones(shape)
        elif name.endswith(".b"):
            params[name] = np.zeros(shape)
        else:
            params[name] = rng.normals(shape[0] * shape[1]).reshape(shape) * PARAM_INIT_STD
    return ToyModel(cfg, params)


def _layer_norm(x, g, b):
    mu = x.mean(axis=-1, keepdims=True)
    xc = x - mu
    var = (xc * xc).mean(axis=-1, keepdims=True)
    istd = 1.0 / np.sqrt(var + LN_EPS)
    xhat = xc * istd
    return xhat * g + b, xhat, istd


def _layer_norm_backward(dout, xhat, istd, g):
    dg = (dout * xhat).sum(axis=(0, 1), keepdims=False).reshape(1, -1)
    db = dout.sum(axis=(0, 1)).reshape(1, -1)
    dxhat = dout * g
    dx = istd * (dxhat - dxhat.mean(axis=-1, keepdims=True)
                 - xhat * (dxhat * xhat).mean(axis=-1, keepdims=True))
    return dx, dg, db


def _softmax(z):
    z = z - z.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def _split_heads(x, n_heads):
    b, t, d = x.shape
    return x.reshape(b, t, n_heads, d // n_heads).transpose(0, 2, 1, 3)


def _merge_heads(x):
    b, h, t, dh = x.shape
    return x.transpose(0, 2, 1, 3).reshape(b, t, h * dh)


def _validate_tokens(cfg: ModelConfig, tokens: np.ndarray) -> np.ndarray:
    arr = np.asarray(tokens, dtype=np.int64)
    if arr.ndim != 2:
        raise InvalidInput(f"tokens must be 2-D (batch, seq), got ndim={arr.ndim}")
    if arr.shape[1] > cfg.max_seq:
        raise InvalidInput(
            f"sequence length {arr.shape[1]} exceeds max_seq {cfg.max_seq}")
    if arr.size and (arr.min() < 0 or arr.max() >= cfg.vocab):
        raise InvalidInput("token ids must lie in [0, vocab)")
    return arr


def _block_forward(model: ToyModel, i: int, x: np.ndarray, want_cache: bool):
    cfg = model.config
    scale = 1.0 / math.sqrt(cfg.d_model // cfg.n_heads)
    t = x.shape[1]
    causal = np.triu(np.full((t, t), NEG_INF), k=1)[None, None, :, :]

    a, xhat1, istd1 = _layer_norm(x, model.weight(f"layer{i}.ln1.g"),
                                  model.weight(f"layer{i}.ln1.b"))
    q = a @ model.weight(f"layer{i}.attn.wq")
    k = a @ model.weight(f"layer{i}.attn.wk")
    v = a @ model.weight(f"layer{i}.attn.wv")
    qh = _split_heads(q, cfg.n_heads)
    kh = _split_heads(k, cfg.n_heads)
    vh = _split_heads(v, cfg.n_heads)
    scores = qh @ kh.transpose(0, 1, 3, 2) * scale + causal
    p = _softmax(scores)
    ctx = _merge_heads(p @ vh)
    x1 = x + ctx @ model.weight(f"layer{i}.attn.wo")

    m, xhat2, istd2 = _layer_norm(x1, model.weight(f"layer{i}.ln2.g"),
                                  model.weight(f"layer{i}.ln2.b"))
    u = m @ model.weight(f"layer{i}.mlp.w1")
    r = np.maximum(u, 0.0)
    x2 = x1 + r @ model.weight(f"layer{i}.mlp.w2")

    cache = None
    if want_cache:
        cache = {"x": x, "a": a, "xhat1": xhat1, "istd1": istd1, "qh": qh,
                 "kh": kh, "vh": vh, "p": p, "ctx": ctx, "x1": x1, "m": m,
                 "xhat2": xhat2, "istd2": istd2, "u": u, "r": r}
    return x2, cache


def _final_logits(model: ToyModel, x: np.ndarray, want_cache: bool):
    y, xhatf, istdf = _layer_norm(x, model.weight("ln_f.g"), model.weight("ln_f.b"))
    logits = y @ model.weight("unembed.w")
    cache = {"x": x, "y": y, "xhatf": xhatf, "istdf": istdf} if want_cache else None
    return logits, cache


def embed(model: ToyModel, tokens) -> np.ndarray:
    arr = _validate_tokens(model.config, tokens)
    return model.weight("embed.tok")[arr] + model.weight("embed.pos")[: arr.shape[1]]


def forward(model: ToyModel, tokens, capture=None) -> np.ndarray:
    """Logits (batch, seq, vocab). ``capture(layer_idx, block_output)`` is
    called with each block's post-residual activations and never affects the
    result."""
    x = embed(model, tokens)
    for i in range(model.config.n_layers):
        x, _ = _block_forward(model, i, x, want_cache=False)
        if capture is not None:
            capture(i, x)
    logits, _ = _final_logits(model, x, want_cache=False)
    return logits


def forward_prefix(model: ToyModel, tokens, stop_layer: int) -> np.ndarray:
    """Hidden state entering block ``stop_layer``."""
    x = embed(model, tokens)
    for i in range(stop_layer):
        x, _ = _block_forward(model, i, x, want_cache=False)
    return x


def forward_from(model: ToyModel, x: np.ndarray, start_layer: int) -> np.ndarray:
    """Logits from a cached hidden state entering block ``start_layer``."""
    for i in range(start_layer, model.config.n_layers):
        x, _ = _block_forward(model, i, x, want_cache=False)
    logits, _ = _final_logits(model, x, want_cache=False)
    return logits


def loss_and_grads(model: ToyModel, tokens, targets, loss_mask):
    """Masked mean cross-entropy and analytic gradients for every parameter."""
    cfg = model.config
    arr = _validate_tokens(cfg, tokens)
    targets = np.asarray(targets, dtype=np.int64)
    mask = np.asarray(loss_mask, dtype=np.float64)
    total = mask.sum()
    if total <= 0:
        raise InvalidInput("loss mask selects no positions")

    x = embed(model, arr)
    caches = []
    for i in range(cfg.n_layers):
        x, cache = _block_forward(model, i, x, want_cache=True)
        caches.append(cache)
    logits, fcache = _final_logits(model, x, want_cache=True)

    b, t, vocab = logits.shape
    zmax = logits.max(axis=-1, keepdims=True)
    ez = np.exp(logits - zmax)
    sez = ez.sum(axis=-1, keepdims=True)
    logp = logits - zmax - np.log(sez)
    picked = np.take_along_axis(logp, targets[..., None], axis=-1)[..., 0]
    loss = float(-(mask * picked).sum() / total)

    probs = ez / sez
    dlogits = probs.copy()
    np.add.at(dlogits.reshape(-1, vocab),
              (np.arange(b * t), targets.reshape(-1)), -1.0)
    dlogits *= (mask / total)[..., None]

    grads = {name: np.zeros_like(p) for name, p in model.params.items()}
    scale = 1.0 / math.sqrt(cfg.d_model // cfg.n_heads)

    y2 = fcache["y"].reshape(-1, cfg.d_model)
    grads["unembed.w"] += y2.T @ dlogits.reshape(-1, vocab)
    dy = dlogits @ model.weight("unembed.w").T
    dx, dgf, dbf = _layer_norm_backward(dy, fcache["xhatf"], fcache["istdf"],
                                        model.weight("ln_f.g"))
    grads["ln_f.g"] += dgf
    grads["ln_f.b"] += dbf

    for i in reversed(range(cfg.n_layers)):
        c = caches[i]
        # MLP path
        df = dx
        dr = df @ model.weight(f"layer{i}.mlp.w2").T
        grads[f"layer{i}.mlp.w2"] += c["r"].reshape(-1, 4 * cfg.d_model).T @ \
            df.reshape(-1, cfg.d_model)
        du = dr * (c["u"] > 0.0)
        grads[f"layer{i}.mlp.w1"] += c["m"].reshape(-1, cfg.d_model).T @ \
            du.reshape(-1, 4 * cfg.d_model)
        dm = du @ model.weight(f"layer{i}.mlp.w1").T
        dx1, dg2, db2 = _layer_norm_backward(dm, c["xhat2"], c["istd2"],
                                             model.weight(f"layer{i}.ln2.g"))
        grads[f"layer{i}.ln2.g"] += dg2
        grads[f"layer{i}.ln2.b"] += db2
        dx1 = dx1 + dx  # residual

        # attention path
        do = dx1
        dctx = do @ model.weight(f"layer{i}.attn.wo").T
        grads[f"layer{i}.attn.wo"] += c["ctx"].reshape(-1, cfg.d_model).T @ \
            do.reshape(-1, cfg.d_model)
        dctx_h = _split_heads(dctx, cfg.n_heads)
        dp = dctx_h @ c["vh"].transpose(0, 1, 3, 2)
        dvh = c["p"].transpose(0, 1, 3, 2) @ dctx_h
        dscores = c["p"] * (dp - (dp * c["p"]).sum(axis=-1, keepdims=True))
        dqh = dscores @ c["kh"] * scale
        dkh = dscores.transpose(0, 1, 3, 2) @ c["qh"] * scale
        dq = _merge_heads(dqh)
        dk = _merge_heads(dkh)
        dv = _merge_heads(dvh)
        a2 = c["a"].reshape(-1, cfg.d_model)
        grads[f"layer{i}.attn.wq"] += a2.T @ dq.reshape(-1, cfg.d_model)
        grads[f"layer{i}.attn.wk"] += a2.T @ dk.reshape(-1, cfg.d_model)
        grads[f"layer{i}.attn.wv"] += a2.T @ dv.reshape(-1, cfg.d_model)
        da = dq @ model.weight(f"layer{i}.attn.wq").T + \
            dk @ model.weight(f"layer{i}.attn.wk").T + \
            dv @ model.weight(f"layer{i}.attn.wv").T
        dxa, dg1, db1 = _layer_norm_backward(da, c["xhat1"], c["istd1"],
                                             model.weight(f"layer{i}.ln1.g"))
        grads[f"layer{i}.ln1.g"] += dg1
        grads[f"layer{i}.ln1.b"] += db1
        dx = dxa + dx1  # residual

    np.add.at(grads["embed.tok"], arr.reshape(-1), dx.reshape(-1, cfg.d_model))
    grads["embed.pos"][: arr.shape[1]] += dx.sum(axis=0)
    return loss, grads


def _pad_batch(sequences: list[list[int]]) -> np.ndarray:
    t = max(len(s) for s in sequences)
    out = np.full((len(sequences), t), PAD, dtype=np.int64)
    for i, s in enumerate(sequences):
        out[i, : len(s)] = s
    return out


def _training_batch(items, indices):
    """Padded tokens, shifted targets, and the answer-position loss mask."""
    seqs = [full_sequence(*items[j]) for j in indices]
    tokens = _pad_batch(seqs)
    targets = np.roll(tokens, -1, axis=1)
    targets[:, -1] = PAD
    mask = np.zeros(tokens.shape, dtype=np.float64)
    for row, j in enumerate(indices):
        prompt, answer = items[j]
        # positions predicting the answer tokens and the closing EOS
        mask[row, len(prompt) - 1: len(prompt) + len(answer)] = 1.0
    return tokens, targets, mask


def train_toy(model: ToyModel, items: list[tuple[list[int], list[int]]],
              steps: int = DEFAULT_TRAIN_STEPS, lr: float = DEFAULT_LR,
              seed: int = 0, batch_size: int = DEFAULT_BATCH) -> dict:
    """Plain SGD with global gradient-norm clipping at 1.0, in place.

    Returns a summary with the initial and final running losses.
    """
    if steps < 0:
        raise InvalidInput(f"steps must be >= 0, got {steps}")
    if steps == 0:
        return {"steps": 0, "initial_loss": None, "final_loss": None}
    if not items:
        raise InvalidInput("training needs at least one item")
    rng = SeededRng(seed).derive(_TRAIN_TAG)
    window = max(1, min(100, steps // 10))
    losses: list[float] = []
    for step in range(steps):
        idx = [rng.randint(len(items)) for _ in range(batch_size)]
        tokens, targets, mask = _training_batch(items, idx)
        loss, grads = loss_and_grads(model, tokens, targets, mask)
        if not math.isfinite(loss):
            raise TrainingDiverged(f"loss became {loss} at step {step}")
        gnorm = math.sqrt(sum(float((g * g).sum()) for g in grads.values()))
        clip = min(1.0, GRAD_CLIP_NORM / gnorm) if gnorm > 0 else 1.0
        for name, g in grads.items():
            model.params[name] -= lr * clip * g
        losses.append(loss)
    return {
        "steps": steps,
        "initial_loss": float(np.mean(losses[:window])),
        "final_loss": float(np.mean(losses[-window:])),
    }


@dataclass
class EvalResult:
    exact_match: float
    token_f1: float
    n_items: int
    degenerate_pairs: int = 0


def greedy_decode(model: ToyModel, prompts: list[list[int]],
                  max_new_tokens: int = DEFAULT_MAX_NEW_TOKENS) -> list[list[int]]:
    """Batched greedy decoding; generation stops at EOS or the length cap.

    Each step forwards only the rows still generating: a row leaves the
    batch once it emits EOS or reaches max_seq, so a finished row never
    lengthens the batch past max_seq or costs the others any work.
    """
    if any(len(p) == 0 for p in prompts):
        raise InvalidInput("every prompt needs at least one token")
    cfg = model.config
    seqs = [list(p) for p in prompts]
    preds: list[list[int]] = [[] for _ in prompts]
    active = list(range(len(seqs)))
    for _ in range(max_new_tokens):
        if not active:
            break
        logits = forward(model, _pad_batch([seqs[i] for i in active]))
        still = []
        for row, i in enumerate(active):
            nxt = int(np.argmax(logits[row, len(seqs[i]) - 1]))
            if nxt == EOS:
                continue
            preds[i].append(nxt)
            seqs[i].append(nxt)
            if len(seqs[i]) < cfg.max_seq:
                still.append(i)
        active = still
    return preds


def _token_f1(pred: list[int], answer: list[int]) -> tuple[float, bool]:
    if not pred and not answer:
        return 0.0, True
    overlap = sum((Counter(pred) & Counter(answer)).values())
    if overlap == 0:
        return 0.0, False
    precision = overlap / len(pred)
    recall = overlap / len(answer)
    return 2 * precision * recall / (precision + recall), False


def evaluate(model: ToyModel, items: list[tuple[list[int], list[int]]],
             max_new_tokens: int = DEFAULT_MAX_NEW_TOKENS) -> EvalResult:
    """Exact match and token-multiset F1 (both percentages) under greedy
    decoding."""
    if not items:
        raise InvalidInput("evaluation needs at least one item")
    preds = greedy_decode(model, [p for p, _ in items], max_new_tokens)
    em_hits = 0
    f1_sum = 0.0
    degenerate = 0
    for pred, (_, answer) in zip(preds, items):
        if pred == answer:
            em_hits += 1
        f1, flag = _token_f1(pred, answer)
        f1_sum += f1
        degenerate += int(flag)
    n = len(items)
    return EvalResult(exact_match=100.0 * em_hits / n, token_f1=100.0 * f1_sum / n,
                      n_items=n, degenerate_pairs=degenerate)
