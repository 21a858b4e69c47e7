"""Deterministic decoder-only toy transformer in plain numpy.

Pre-norm blocks (LayerNorm, causal multi-head attention, ReLU MLP, residual
connections), learned positional embeddings, no biases on the linear maps.
Forward, analytic backward, SGD training with gradient clipping, greedy
decoding with a per-layer key/value cache, and EM / token-F1 evaluation all
live here; training computes only the positions its loss can reach.
Activation capture hooks observe each block's post-residual output without
altering results.

Every path reads weights from ``model.params`` alone. A quantized model has
its own parameter dict in which each quantized matrix is its QTensor's
dequantized weights and every other entry is the parent's array.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .errors import InvalidConfig, InvalidInput, InvalidPlan, TrainingDiverged, require_int
from .linalg import SeededRng, Tensor
from .quant import QTensor, quantize_tensor
from .tasks import EOS, PAD, full_sequence

PARAM_INIT_STD = 0.02
LN_EPS = 1e-5
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
        for name in ("n_layers", "d_model", "n_heads", "vocab", "max_seq", "seed"):
            object.__setattr__(self, name, require_int(name, getattr(self, name)))
        if self.d_model < 1 or self.n_heads < 1 or self.d_model % self.n_heads != 0:
            raise InvalidConfig(f"d_model {self.d_model} must be a positive multiple "
                                f"of a positive n_heads, got n_heads {self.n_heads}")
        if self.n_layers < 1:
            raise InvalidConfig(f"n_layers must be >= 1, got {self.n_layers}")
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
    return [name for name, _ in _layer_param_shapes(cfg, layer) if not name.endswith((".g", ".b"))]


def layer_weight_counts(cfg: ModelConfig) -> tuple[int, ...]:
    """Weights per block that quantization covers: its ``quantizable_names``."""
    shapes = dict(param_shapes(cfg))
    return tuple(sum(math.prod(shapes[name]) for name in quantizable_names(cfg, i))
                 for i in range(cfg.n_layers))


class ToyModel:
    """Parameters, and the QTensors behind any quantized entries.

    ``params`` maps names to float64 arrays; forward, decode and training read
    only it. ``qtensors`` records how each quantized entry was made: for each
    of its names, ``params[name]`` is ``qtensors[name].weights``.
    """

    def __init__(self, config: ModelConfig, params: dict[str, np.ndarray],
                 qtensors: dict[str, QTensor] | None = None):
        self.config = config
        self.params = params
        self.qtensors: dict[str, QTensor] = qtensors or {}

    def with_quantized_layers(self, layer_bits: dict[int, int], group_size: int) -> "ToyModel":
        """New model with the given layers' weight matrices quantized at the
        given bitwidths (min-max fit). Its parameter dict is new; entries it
        does not quantize are the parent's arrays, shared."""
        qtensors = {}
        for layer, bits in layer_bits.items():
            if not (0 <= require_int("layer", layer) < self.config.n_layers):
                raise InvalidPlan(f"layer {layer} outside model with "
                                  f"{self.config.n_layers} layers")
            for name in quantizable_names(self.config, layer):
                qtensors[name] = quantize_tensor(
                    Tensor(self.params[name], label=name), bits, group_size)
        params = {**self.params, **{name: qt.weights for name, qt in qtensors.items()}}
        return ToyModel(self.config, params, qtensors)


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


def _layer_norm(x, g, b, cache=None, tag=""):
    """LayerNorm over the last axis. Given ``cache``, it stores the normalized
    input and inverse deviation there as ``xhat<tag>`` and ``istd<tag>``."""
    # np.add.reduce and a divide are what ndarray.mean runs, without its
    # Python-level wrapper
    d = x.shape[-1]
    xhat = x - np.add.reduce(x, axis=-1, keepdims=True) / d
    istd = 1.0 / np.sqrt(np.add.reduce(xhat * xhat, axis=-1, keepdims=True) / d + LN_EPS)
    xhat *= istd
    if cache is not None:
        cache["xhat" + tag], cache["istd" + tag] = xhat, istd
    return _affine(xhat, g, b)


def _affine(xhat, g, b):
    """LayerNorm's output from its normalized input; the backward pass rebuilds
    it with the same two operations rather than keeping it."""
    y = xhat * g
    y += b
    return y


def _layer_norm_backward(dout, xhat, istd, g):
    dg = (dout * xhat).sum(axis=0, keepdims=True)
    db = dout.sum(axis=0, keepdims=True)
    dxhat = dout * g
    dx = istd * (dxhat - dxhat.mean(axis=-1, keepdims=True)
                 - xhat * (dxhat * xhat).mean(axis=-1, keepdims=True))
    return dx, dg, db


def _linear(x, w):
    """x @ w over the last axis as one 2-D GEMM on the flattened leading axes.
    numpy runs a 3-D ``@`` as one small GEMM per batch row."""
    return (x.reshape(-1, x.shape[-1]) @ w).reshape(*x.shape[:-1], w.shape[1])


def _attention_mask(pos: np.ndarray) -> np.ndarray:
    """(batch or 1, 1, t, n_keys): where each query at ``pos`` (batch or 1, t)
    may attend each key position, up to the furthest position in ``pos``;
    built once per pass or decode step, not per block."""
    return np.arange(pos.max(initial=-1) + 1) <= pos[:, None, :, None]


def _split_heads(x, n_heads):
    b, t, d = x.shape
    return x.reshape(b, t, n_heads, d // n_heads).transpose(0, 2, 1, 3)


def _merge_heads(x):
    b, h, t, dh = x.shape
    return x.transpose(0, 2, 1, 3).reshape(b, t, h * dh)


def _unpack(x, rows):
    """Packed (n, d) rows onto a zero (batch, t, d) grid at the True entries
    of ``rows``, in row-major order; x itself when ``rows`` is None."""
    if rows is None:
        return x
    grid = np.zeros(rows.shape + x.shape[-1:])
    grid[rows] = x
    return grid


def _validate_tokens(cfg: ModelConfig, tokens: np.ndarray) -> np.ndarray:
    try:
        arr = np.asarray(tokens)
    except ValueError as err:  # numpy's refusal of ragged nesting
        raise InvalidInput(f"tokens must form a rectangular array: {err}") from None
    if arr.size and arr.dtype.kind not in "iu":
        raise InvalidInput(f"token ids must be integers, got dtype {arr.dtype}")
    arr = arr.astype(np.int64, copy=False)
    if arr.ndim != 2:
        raise InvalidInput(f"tokens must be 2-D (batch, seq), got ndim={arr.ndim}")
    if arr.shape[1] > cfg.max_seq:
        raise InvalidInput(
            f"sequence length {arr.shape[1]} exceeds max_seq {cfg.max_seq}")
    if arr.size and (arr.min() < 0 or arr.max() >= cfg.vocab):
        raise InvalidInput("token ids must lie in [0, vocab)")
    return arr


def _block_forward(model: ToyModel, i: int, x: np.ndarray, keep, kv=None, pos=None,
                   cache=None, rows=None) -> np.ndarray:
    """One block over x (batch, t, d_model): its output. ``keep`` is
    ``_attention_mask(pos)``; without ``kv`` the t queries attend over their
    own t keys. Given the block's cache ``kv``, (2, batch, n_heads, n_pos,
    d_head), the block writes its keys and values at each row's ``pos``
    (batch or 1, t) and attends over the first ``keep.shape[-1]`` slots:
    prefill and decode step alike.

    Only ``loss_and_grads`` passes ``cache``, a dict the block fills with the
    activations its backward pass reads. Without it every intermediate is
    dropped once its last reader is done, so inference holds only what the
    next operation reads. Given ``rows``, a (batch, t) boolean array, x is
    the packed (n, d_model) rows at its True entries (see ``loss_and_grads``)
    and attention alone runs on the (batch, t) grid."""
    cfg = model.config
    w = model.params
    pre = f"layer{i}."
    scale = 1.0 / math.sqrt(cfg.d_model // cfg.n_heads)

    a = _layer_norm(x, w[pre + "ln1.g"], w[pre + "ln1.b"], cache, "1")
    qh = _split_heads(_unpack(_linear(a, w[pre + "attn.wq"]), rows), cfg.n_heads)
    kh = _split_heads(_unpack(_linear(a, w[pre + "attn.wk"]), rows), cfg.n_heads)
    vh = _split_heads(_unpack(_linear(a, w[pre + "attn.wv"]), rows), cfg.n_heads)
    del a
    if kv is not None:
        slots = (np.arange(len(x))[:, None], slice(None), pos)  # (batch, t, n_heads, d_head)
        kv[0][slots], kv[1][slots] = kh.transpose(0, 2, 1, 3), vh.transpose(0, 2, 1, 3)
        kh, vh = kv[:, :, :, : keep.shape[-1]]
    p = qh @ kh.transpose(0, 1, 3, 2)
    p *= scale
    # Softmax in place, with weight 0 on masked keys. Masked entries never reach
    # exp as large negatives: numpy's exp runs several times slower on inputs
    # that underflow, and about half of every causal score matrix is masked.
    p -= np.maximum.reduce(p, axis=-1, keepdims=True, where=keep, initial=-np.inf)
    p *= keep
    np.exp(p, out=p)
    p *= keep
    p /= np.add.reduce(p, axis=-1, keepdims=True)
    ctx = _merge_heads(p @ vh) if rows is None else _merge_heads(p @ vh)[rows]
    if cache is not None:
        cache.update(qh=qh, kh=kh, vh=vh, p=p, ctx=ctx)
    del qh, kh, vh, p
    x1 = _linear(ctx, w[pre + "attn.wo"])
    del ctx
    x1 += x

    m = _layer_norm(x1, w[pre + "ln2.g"], w[pre + "ln2.b"], cache, "2")
    r = _linear(m, w[pre + "mlp.w1"])
    del m
    np.maximum(r, 0.0, out=r)
    if cache is not None:
        cache["r"] = r
    x1 += _linear(r, w[pre + "mlp.w2"])
    return x1


def _final_logits(model: ToyModel, x: np.ndarray, cache=None) -> np.ndarray:
    """Logits from the last block's output; ``cache``, as in ``_block_forward``,
    receives what the backward pass reads."""
    w = model.params
    return _linear(_layer_norm(x, w["ln_f.g"], w["ln_f.b"], cache, "f"), w["unembed.w"])


def embed(model: ToyModel, tokens, pos=None) -> np.ndarray:
    """Token plus positional embeddings of ``tokens`` at positions ``pos``
    (batch or 1, t), by default [0, t) for every row."""
    arr = _validate_tokens(model.config, tokens)
    pos = slice(arr.shape[1]) if pos is None else pos
    return model.params["embed.tok"][arr] + model.params["embed.pos"][pos]


def _blocks(model: ToyModel, x: np.ndarray, start: int, stop: int, capture=None,
            kv=None, pos=None, caches=None, rows=None) -> np.ndarray:
    """Blocks [start, stop) over x at positions ``pos`` (batch or 1, t),
    by default [0, t) for every row; ``kv[i]`` is block i's key/value cache
    and ``caches[i]`` the dict block i fills for its backward pass. Given
    ``rows``, x is packed as in ``_block_forward`` and ``pos`` is required."""
    pos = np.arange(x.shape[1])[None] if pos is None else pos
    keep = _attention_mask(pos)
    for i in range(start, stop):
        x = _block_forward(model, i, x, keep, None if kv is None else kv[i], pos,
                           None if caches is None else caches[i], rows)
        if capture is not None:
            capture(i, x)
    return x


def forward(model: ToyModel, tokens, capture=None) -> np.ndarray:
    """Logits (batch, seq, vocab). ``capture(layer_idx, block_output)`` is
    called with each block's post-residual activations and never affects the
    result."""
    x = _blocks(model, embed(model, tokens), 0, model.config.n_layers, capture)
    return _final_logits(model, x)


def forward_prefix(model: ToyModel, tokens, stop_layer: int) -> np.ndarray:
    """Hidden state entering block ``stop_layer``."""
    return _blocks(model, embed(model, tokens), 0, stop_layer)


def forward_from(model: ToyModel, x: np.ndarray, start_layer: int) -> np.ndarray:
    """Logits from a cached hidden state entering block ``start_layer``."""
    x = _blocks(model, x, start_layer, model.config.n_layers)
    return _final_logits(model, x)


def loss_and_grads(model: ToyModel, tokens, targets, loss_mask):
    """Masked mean cross-entropy and analytic gradients for every parameter,
    in ``model.params`` order.

    Only the positions the loss can reach are computed: row r's [0, need_r),
    need_r one past its last nonzero mask entry (0 for an all-zero row).
    Attention is causal, so a later position never feeds the loss, and what
    skipping it drops is exact zeros. The needed positions, packed in
    row-major order into (n, d_model) rows, go through every step but
    attention, which scatters q/k/v onto a zero (batch, t) grid and gathers
    the context back; its backward pass mirrors this. The grid keeps the full
    width t, not max need_r: t is the inner length of ``p @ v``, and a
    shorter one changes those sums in the last bits. For the same reason the
    loss is summed on the grid. Loss and gradients are bit for bit those of
    computing every position.

    This is the one caller that passes backward caches to ``_blocks`` and
    ``_final_logits``, one dict per block and one for the loss path; every
    inference path passes none and keeps no activation it will not read.
    Each block's cache holds what its backward pass reads and cannot rebuild
    without a GEMM: the normalized LayerNorm inputs and inverse deviations,
    the attention heads, the softmax weights, the attention context and the
    ReLU output. The LayerNorm outputs are not kept: the backward pass
    rebuilds each from its normalized input with ``_affine``, the two
    operations the forward ran, so the gradients are bit for bit those of
    keeping them. The loss path's arrays (the logits, their softmax, the
    final LayerNorm's cache) are dropped once read, and each block's
    backward temporaries at the end of the block.

    A block's cache is dropped one block late, once the block below has its
    gradients: those sit above it on the heap, so the freed cache is a hole
    that the next allocations reuse. Dropped as soon as its own gradients
    are out, it lies at the top of the heap, glibc's allocator returns that
    top to the system, and the next step faults it back in: about 5x the
    minor page faults of a ``train_toy`` run. ``train_toy`` keeps one step's
    gradient dict until the next step's exists for the same reason.
    """
    cfg = model.config
    arr = _validate_tokens(cfg, tokens)
    targets = _validate_tokens(cfg, targets)
    try:
        mask = np.asarray(loss_mask, dtype=np.float64)
    except (TypeError, ValueError) as err:  # ragged nesting or non-numbers
        raise InvalidInput(f"loss mask must be a rectangular array of numbers: {err}") from None
    if targets.shape != arr.shape or mask.shape != arr.shape:
        raise InvalidInput(f"targets {targets.shape} and loss mask {mask.shape} must have "
                           f"the tokens' shape {arr.shape}")
    total = mask.sum()  # not finite when any entry is not
    if not (math.isfinite(total) and total > 0):
        raise InvalidInput(f"loss mask must be finite and select positions; it sums to {total}")

    b, t = arr.shape
    rows = np.arange(t) < ((mask != 0) * np.arange(1, t + 1)).max(axis=1)[:, None]
    caches = [{} for _ in range(cfg.n_layers)]
    fcache = {}
    logits = _final_logits(model, _blocks(model, embed(model, arr)[rows], 0, cfg.n_layers,
                                          pos=np.arange(t)[None], caches=caches, rows=rows),
                           fcache)

    tgt = targets[rows]
    logits -= logits.max(axis=-1, keepdims=True)
    dlogits = np.exp(logits)
    sez = dlogits.sum(axis=-1, keepdims=True)
    picked = np.zeros((b, t))  # summed on the grid, in the unpacked sum's order
    picked[rows] = np.take_along_axis(logits, tgt[:, None], axis=-1)[:, 0] - np.log(sez[:, 0])
    del logits
    loss = float(-(mask * picked).sum() / total)

    dlogits /= sez  # the softmax
    np.add.at(dlogits, (np.arange(len(tgt)), tgt), -1.0)
    dlogits *= (mask[rows] / total)[:, None]

    w = model.params
    grads = dict.fromkeys(w)
    scale = 1.0 / math.sqrt(cfg.d_model // cfg.n_heads)

    def linear(name, inp, dout):
        """Gradient of out = inp @ w[name]: sets grads[name], returns d(inp)."""
        grads[name] = inp.reshape(-1, inp.shape[-1]).T @ dout.reshape(-1, dout.shape[-1])
        return _linear(dout, w[name].T)

    def norm(prefix, dout, xhat, istd):
        """LayerNorm backward: sets the gain and bias gradients, returns d(x)."""
        dx, grads[prefix + ".g"], grads[prefix + ".b"] = _layer_norm_backward(
            dout, xhat, istd, w[prefix + ".g"])
        return dx

    y = _affine(fcache["xhatf"], w["ln_f.g"], w["ln_f.b"])
    dy = linear("unembed.w", y, dlogits)
    dx = norm("ln_f", dy, fcache["xhatf"], fcache["istdf"])
    del dlogits, fcache, y, dy

    for i in reversed(range(cfg.n_layers)):
        c = caches[i]
        pre = f"layer{i}."
        # MLP path
        du = linear(pre + "mlp.w2", c["r"], dx)
        du *= c["r"] > 0.0
        m = _affine(c["xhat2"], w[pre + "ln2.g"], w[pre + "ln2.b"])
        dm = linear(pre + "mlp.w1", m, du)
        dx1 = norm(pre + "ln2", dm, c["xhat2"], c["istd2"]) + dx  # residual
        del du, m, dm

        # attention path, on the grid
        dctx_h = _split_heads(_unpack(linear(pre + "attn.wo", c["ctx"], dx1), rows),
                              cfg.n_heads)
        dp = dctx_h @ c["vh"].transpose(0, 1, 3, 2)
        dvh = c["p"].transpose(0, 1, 3, 2) @ dctx_h
        dp -= (dp * c["p"]).sum(axis=-1, keepdims=True)
        dp *= c["p"]  # d(scores)
        dqh = dp @ c["kh"] * scale
        dkh = dp.transpose(0, 1, 3, 2) @ c["qh"] * scale
        a = _affine(c["xhat1"], w[pre + "ln1.g"], w[pre + "ln1.b"])
        da = linear(pre + "attn.wq", a, _merge_heads(dqh)[rows]) + \
            linear(pre + "attn.wk", a, _merge_heads(dkh)[rows]) + \
            linear(pre + "attn.wv", a, _merge_heads(dvh)[rows])
        del a, dctx_h, dp, dqh, dkh, dvh
        dx = norm(pre + "ln1", da, c["xhat1"], c["istd1"]) + dx1  # residual
        del caches[i + 1:]  # the block above, once this one's gradients sit over it

    grads["embed.tok"] = np.zeros_like(w["embed.tok"])
    np.add.at(grads["embed.tok"], arr[rows], dx)
    grads["embed.pos"] = np.zeros_like(w["embed.pos"])
    np.add.at(grads["embed.pos"], np.nonzero(rows)[1], dx)
    return loss, grads


def _pad_batch(sequences: list[list[int]]) -> list[list[int]]:
    """Right-padded copies; left as lists, so ``_validate_tokens`` sees the ids
    as given and refuses non-integers rather than truncating them."""
    t = max(len(s) for s in sequences)
    return [list(s) + [PAD] * (t - len(s)) for s in sequences]


def _training_batch(items, indices):
    """Padded tokens, shifted targets, and the answer-position loss mask."""
    seqs = [full_sequence(*items[j]) for j in indices]
    tokens = np.asarray(_pad_batch(seqs))
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
    if model.qtensors:
        raise InvalidInput("train the full-precision model, then quantize it; this one "
                           f"has {len(model.qtensors)} quantized weight matrices")
    if require_int("steps", steps) < 0:
        raise InvalidInput(f"steps must be >= 0, got {steps}")
    if require_int("batch_size", batch_size) < 1:
        raise InvalidInput(f"batch_size must be >= 1, got {batch_size}")
    if not (math.isfinite(lr) and lr > 0.0):
        raise InvalidInput(f"lr must be finite and positive, got {lr}")
    if steps == 0:
        return {"steps": 0, "initial_loss": None, "final_loss": None}
    if not items:
        raise InvalidInput("training needs at least one item")
    if any(len(prompt) == 0 for prompt, _ in items):
        raise InvalidInput("every training item needs a prompt of at least one token")
    rng = SeededRng(seed).derive(_TRAIN_TAG)
    window = max(1, min(100, steps // 10))
    losses: list[float] = []
    for step in range(steps):
        idx = rng.randints(np.full(batch_size, len(items))).tolist()
        tokens, targets, mask = _training_batch(items, idx)
        # rebinds grads only once the new dict exists; see loss_and_grads
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

    One forward pass over the right-padded prompts (the prefill) fills each
    block's key/value cache, sized to the last position decoding can reach.
    Each later step embeds only the newest token of each row, at that row's
    own position, and attends over the cached keys at or before it, so a
    padding slot past a row's length is masked until the row overwrites it.
    A row leaves the batch and the cache once it emits EOS or reaches max_seq.
    """
    if require_int("max_new_tokens", max_new_tokens) < 0:
        raise InvalidInput(f"max_new_tokens must be >= 0, got {max_new_tokens}")
    if any(len(p) == 0 for p in prompts):
        raise InvalidInput("every prompt needs at least one token")
    preds: list[list[int]] = [[] for _ in prompts]
    if not prompts or max_new_tokens == 0:
        return preds
    cfg = model.config
    active = np.arange(len(prompts))
    pos = np.array([len(p) - 1 for p in prompts])  # each row's newest token
    # one cache per layer, (key/value, row, head, position, d_head) up to the
    # last position decoding can reach; zeroed, so a masked slot is finite and
    # gets exactly zero weight. Rows leave one layer's cache at a time, so the
    # compaction holds the cache plus one layer's copy, not two caches.
    reach = min(cfg.max_seq, max(map(len, prompts)) + max_new_tokens - 1)
    kv = [np.zeros((2, len(prompts), cfg.n_heads, reach, cfg.d_model // cfg.n_heads))
          for _ in range(cfg.n_layers)]
    x = _blocks(model, embed(model, _pad_batch(prompts)), 0, cfg.n_layers, kv=kv)[active, pos]
    for step in range(max_new_tokens):
        nxt = _final_logits(model, x).argmax(axis=-1)
        for i, tok in zip(active[nxt != EOS], nxt[nxt != EOS]):
            preds[i].append(int(tok))
        keep = (nxt != EOS) & (pos + 2 < cfg.max_seq)
        if step == max_new_tokens - 1 or not keep.any():
            break
        if not keep.all():
            active, nxt, pos = active[keep], nxt[keep], pos[keep]
            for i in range(cfg.n_layers):
                kv[i] = kv[i][:, keep]
        pos = pos + 1
        x = _blocks(model, embed(model, nxt[:, None], pos[:, None]), 0, cfg.n_layers,
                    kv=kv, pos=pos[:, None])[:, 0]
    return preds


def _token_f1(pred: list[int], answer: list[int]) -> tuple[float, bool]:
    if not pred and not answer:
        return 1.0, True
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
