"""Deterministic decoder-only toy transformer in plain numpy.

Pre-norm blocks (LayerNorm, causal multi-head attention, ReLU MLP, residual
connections), learned positional embeddings, no biases on the linear maps.
Forward, analytic backward, SGD training with gradient clipping, greedy
decoding with a per-layer key/value cache, and EM / token-F1 evaluation all
live here, with the sequence layout they share: prompt, answer, EOS.
``train_toy`` checks and lays out all its items once, so it refuses every
bad item before step 0. Training computes only the positions its loss can
reach, and keeps for its backward pass only what that pass cannot rebuild
with one GEMM (see ``loss_and_grads``). Activation capture hooks observe
each block's post-residual output without altering results.

Every path reads weights from ``model.params`` alone. A quantized model has
its own parameter dict in which each quantized matrix is its QTensor's
dequantized weights and every other entry is the parent's array.

A model computes in its parameters' dtype, float32 (as ``init_model``
gives) or float64 (as the float64 copy of one, or a float64 checkpoint):
every activation, cache, loss and gradient has it.
"""

from __future__ import annotations

import ctypes
import math
import sys
from collections import Counter
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .errors import (ConvergenceError, InvalidInput, require_array, require_instance, require_int,
                     require_real, require_sequence)
from .linalg import SeededRng, Tensor
from .quant import QTensor, quantize_tensor
from .tasks import EOS, PAD

PARAM_INIT_STD = 0.02
LN_EPS = 1e-5
DEFAULT_TRAIN_STEPS = 3000
DEFAULT_LR = 0.5
DEFAULT_BATCH = 16
GRAD_CLIP_NORM = 1.0
DEFAULT_MAX_NEW_TOKENS = 16

_INIT_TAG = 11
_TRAIN_TAG = 13
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3  # glibc mallopt options
_MALLOC_KEEP_BYTES = 32 * 2**20  # glibc's 64-bit ceiling for its dynamic mmap threshold


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
            raise InvalidInput(f"d_model {self.d_model} must be a positive multiple "
                               f"of a positive n_heads, got n_heads {self.n_heads}")
        if self.n_layers < 1:
            raise InvalidInput(f"n_layers must be >= 1, got {self.n_layers}")
        if self.vocab < 8 or self.max_seq < 4:
            raise InvalidInput("vocab must be >= 8 and max_seq >= 4")


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

    ``params`` maps names to arrays that all share one dtype, float32 or
    float64, kept as ``dtype``; forward, decode and training read only it.
    ``qtensors`` records how each quantized entry was made: for each of its
    names, ``params[name]`` is ``qtensors[name].weights`` in ``dtype``.
    """

    def __init__(self, config: ModelConfig, params: dict[str, np.ndarray],
                 qtensors: dict[str, QTensor] | None = None):
        self.config = require_instance("config", config, ModelConfig)
        self.params = require_instance("params", params, dict)
        for name, shape in param_shapes(config):
            if not isinstance(params.get(name), np.ndarray) or params[name].shape != shape:
                raise InvalidInput(f"params must hold {name} as an array of shape {shape}")
        dtypes = sorted({str(params[name].dtype) for name, _ in param_shapes(config)})
        if dtypes not in (["float32"], ["float64"]):
            raise InvalidInput(f"params must be all float32 or all float64, got {dtypes}")
        self.dtype = np.dtype(dtypes[0])
        self.qtensors: dict[str, QTensor] = qtensors or {}

    def with_quantized_layers(self, layer_bits: dict[int, int], group_size: int) -> "ToyModel":
        """New model with the given layers' weight matrices quantized at the
        given bitwidths (min-max fit). Its parameter dict is new; entries it
        does not quantize are the parent's arrays, shared. A quantized entry
        is its QTensor's float64 weights, cast to float32 for a float32 model
        and the same array for a float64 one."""
        qtensors = {}
        for layer, bits in require_instance("layer_bits", layer_bits, dict).items():
            if not (0 <= require_int("layer", layer) < self.config.n_layers):
                raise InvalidInput(f"layer {layer} outside model with "
                                   f"{self.config.n_layers} layers")
            for name in quantizable_names(self.config, layer):
                qtensors[name] = quantize_tensor(
                    Tensor(self.params[name], label=name), bits, group_size)
        params = {**self.params, **{name: qt.weights.astype(self.dtype, copy=False)
                                    for name, qt in qtensors.items()}}
        return ToyModel(self.config, params, qtensors)


def init_model(cfg: ModelConfig) -> ToyModel:
    """Seeded init in float32: normals with std 0.02 for weights, each drawn
    and scaled in float64 and rounded once, and identity layer norms."""
    rng = SeededRng(cfg.seed).derive(_INIT_TAG)
    params: dict[str, np.ndarray] = {}
    for name, shape in param_shapes(cfg):
        if name.endswith(".g"):
            params[name] = np.ones(shape)
        elif name.endswith(".b"):
            params[name] = np.zeros(shape)
        else:
            params[name] = rng.normals(shape[0] * shape[1]).reshape(shape) * PARAM_INIT_STD
    return ToyModel(cfg, {name: values.astype(np.float32) for name, values in params.items()})


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
    """d(x), d(g), d(b). d(x) is istd * (dxhat - mean(dxhat) - xhat * mean(dxhat * xhat)),
    dxhat = dout * g, in place but in that order and with ``_layer_norm``'s means."""
    d = xhat.shape[-1]
    tmp = dout * xhat
    dg, db = np.add.reduce(tmp, axis=0, keepdims=True), np.add.reduce(dout, axis=0, keepdims=True)
    dx = dout * g
    np.multiply(dx, xhat, out=tmp)
    np.multiply(xhat, np.add.reduce(tmp, axis=-1, keepdims=True) / d, out=tmp)
    dx -= np.add.reduce(dx, axis=-1, keepdims=True) / d
    dx -= tmp
    dx *= istd
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


def _merge_heads(x, rows=None):
    """(batch, n_heads, t, d_head) heads as (batch, t, d_model), or given
    ``rows`` as the packed (n, d_model) rows at its True entries, gathered
    from the heads in one copy."""
    b, h, t, dh = x.shape
    x = x.transpose(0, 2, 1, 3)
    return x.reshape(b, t, h * dh) if rows is None else x[rows].reshape(-1, h * dh)


def _unpack(x, rows):
    """Packed (n, d) rows onto a zero (batch, t, d) grid at the True entries
    of ``rows``, in row-major order; x itself when ``rows`` is None."""
    if rows is None:
        return x
    grid = np.zeros(rows.shape + x.shape[-1:], x.dtype)
    grid[rows] = x
    return grid


def _scatter_add(ids, n, x):
    """(n, d): row j sums the rows of x (len(ids), d) whose id is j, as a GEMM
    with the one-hot matrix of ``ids``; np.add.at sums them in another order."""
    return (np.arange(n)[:, None] == ids).astype(x.dtype) @ x


def _validate_tokens(cfg: ModelConfig, tokens: np.ndarray) -> np.ndarray:
    arr = require_array("tokens", tokens, 2, integer=True).astype(np.int64, copy=False)
    if arr.shape[1] > cfg.max_seq:
        raise InvalidInput(
            f"sequence length {arr.shape[1]} exceeds max_seq {cfg.max_seq}")
    if arr.size and (arr.min() < 0 or arr.max() >= cfg.vocab):
        raise InvalidInput("token ids must lie in [0, vocab)")
    return arr


def _heads(model: ToyModel, i: int, a: np.ndarray, rows) -> list[np.ndarray]:
    """Block i's queries, keys and values from its first LayerNorm output
    ``a``, each split into heads on the (batch, t) grid."""
    w, pre = model.params, f"layer{i}.attn."
    return [_split_heads(_unpack(_linear(a, w[pre + name]), rows), model.config.n_heads)
            for name in ("wq", "wk", "wv")]


def _hidden(model: ToyModel, i: int, m: np.ndarray) -> np.ndarray:
    """Block i's ReLU output from its second LayerNorm output ``m``."""
    r = _linear(m, model.params[f"layer{i}.mlp.w1"])
    np.maximum(r, 0.0, out=r)
    return r


def _block_forward(model: ToyModel, i: int, x: np.ndarray, keep, kv=None, pos=None,
                   cache=None, rows=None) -> np.ndarray:
    """One block over x (batch, t, d_model): its output. ``keep`` is
    ``_attention_mask(pos)``; without ``kv`` the t queries attend over their
    own t keys. Given the block's cache ``kv``, (2, batch, n_heads, n_pos,
    d_head), the block writes its keys and values at each row's ``pos``
    (batch or 1, t) and attends over the first ``keep.shape[-1]`` slots:
    prefill and decode step alike.

    Only ``loss_and_grads`` passes ``cache``, a dict the block fills with
    what its backward pass cannot rebuild with one GEMM: the two LayerNorms'
    normalized inputs and inverse deviations, and the softmax weights. The
    backward pass rebuilds the rest through ``_affine``, ``_heads``,
    ``_merge_heads`` and ``_hidden``, the calls made here. Without ``cache``
    every intermediate is dropped once its last reader is done, so inference
    holds only what the next operation reads. Given ``rows``, a (batch, t)
    boolean array, x is the packed (n, d_model) rows at its True entries (see
    ``loss_and_grads``) and attention alone runs on the (batch, t) grid."""
    cfg = model.config
    w = model.params
    pre = f"layer{i}."
    scale = 1.0 / math.sqrt(cfg.d_model // cfg.n_heads)

    a = _layer_norm(x, w[pre + "ln1.g"], w[pre + "ln1.b"], cache, "1")
    qh, kh, vh = _heads(model, i, a, rows)
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
    if cache is not None:
        cache["p"] = p
    ctx = _merge_heads(p @ vh, rows)
    del qh, kh, vh, p
    x1 = _linear(ctx, w[pre + "attn.wo"])
    del ctx
    x1 += x

    m = _layer_norm(x1, w[pre + "ln2.g"], w[pre + "ln2.b"], cache, "2")
    r = _hidden(model, i, m)
    del m
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
    arr = _validate_tokens(require_instance("model", model, ToyModel).config, tokens)
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
    x = embed(model, tokens)
    if capture is not None:
        require_instance("capture", capture, Callable)
    return _final_logits(model, _blocks(model, x, 0, model.config.n_layers, capture))


def _boundary(cfg: ModelConfig, name: str, layer) -> int:
    """``layer`` as the index of a block boundary, an int in [0, n_layers]."""
    if (i := require_int(name, layer, 0)) > cfg.n_layers:
        raise InvalidInput(f"{name} must be <= n_layers {cfg.n_layers}, got {i}")
    return i


def forward_prefix(model: ToyModel, tokens, stop_layer: int) -> np.ndarray:
    """Hidden state entering block ``stop_layer``."""
    x = embed(model, tokens)
    return _blocks(model, x, 0, _boundary(model.config, "stop_layer", stop_layer))


def forward_from(model: ToyModel, x: np.ndarray, start_layer: int) -> np.ndarray:
    """Logits from a cached hidden state (batch, t, d_model) entering block
    ``start_layer``; the state is read in the model's dtype."""
    cfg = require_instance("model", model, ToyModel).config
    start = _boundary(cfg, "start_layer", start_layer)
    with np.errstate(over="ignore"):  # a value past the dtype's range becomes inf
        x = require_array("hidden state", x, 3).astype(model.dtype, copy=False)
    if x.shape[1] > cfg.max_seq or x.shape[2] != cfg.d_model:
        raise InvalidInput(f"hidden state must be (batch, t <= {cfg.max_seq}, {cfg.d_model}), "
                           f"got {x.shape}")
    if not np.isfinite(x).all():
        raise InvalidInput(f"hidden state must be finite in {model.dtype}")
    return _final_logits(model, _blocks(model, x, start, cfg.n_layers))


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
    computing every position, bar the embedding gradients, one GEMM over the
    packed rows (see below).

    This is the one caller that passes backward caches to ``_blocks`` and
    ``_final_logits``, one dict per block and one for the loss path; every
    inference path passes none and keeps no activation it will not read.
    Each block's cache holds only what its backward pass cannot rebuild with
    one GEMM: the two LayerNorms' normalized inputs and inverse deviations,
    and the softmax weights. The backward pass rebuilds the rest with the
    calls the forward made: each LayerNorm output with ``_affine``, q/k/v
    from the first with ``_heads``, the context as ``p @ vh`` through
    ``_merge_heads``, and the ReLU output from the second with ``_hidden``.
    Being the same operations on the same inputs, they give the forward's
    arrays bit for bit, and so the gradients of keeping them. The softmax
    weights stay: rebuilding them would cost the qk product and the masked
    softmax, the most expensive part of a block's attention. For fewer numpy
    passes, the backward adds the residual and q/k/v input gradients in place,
    scales d(scores) once rather than dq and dk, and sums each embedding
    table's gradient rows as one GEMM (``_scatter_add``). The loss path's
    arrays (the logits, their softmax, the final LayerNorm's cache) are
    dropped once read, each block's backward temporaries at the end of the
    block, and each block's cache once its gradients are out. The next call
    reuses that memory rather than faulting it back in under the allocator
    policy ``train_toy`` sets, which lasts for the rest of the process.
    """
    cfg = require_instance("model", model, ToyModel).config
    arr = _validate_tokens(cfg, tokens)
    targets = _validate_tokens(cfg, targets)
    with np.errstate(over="ignore"):  # an entry or a sum past the dtype's range reads as inf
        mask = require_array("loss mask", loss_mask).astype(model.dtype, copy=False)
        total = mask.sum()
    if targets.shape != arr.shape or mask.shape != arr.shape:
        raise InvalidInput(f"targets {targets.shape} and loss mask {mask.shape} must have "
                           f"the tokens' shape {arr.shape}")
    if not 0.0 < total < math.inf:
        raise InvalidInput(f"loss mask must select positions; it sums to {total}")

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
    picked = np.zeros((b, t), model.dtype)  # summed on the grid, in the unpacked sum's order
    picked[rows] = np.take_along_axis(logits, tgt[:, None], axis=-1)[:, 0] - np.log(sez[:, 0])
    del logits
    loss = float(-(mask * picked).sum() / total)

    dlogits /= sez  # the softmax
    dlogits[np.arange(len(tgt)), tgt] -= 1.0
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
        c = caches.pop()  # block i's; dropped once its gradients are out
        pre = f"layer{i}."
        # MLP path
        m = _affine(c["xhat2"], w[pre + "ln2.g"], w[pre + "ln2.b"])
        r = _hidden(model, i, m)
        du = linear(pre + "mlp.w2", r, dx)
        du *= r > 0.0
        del r
        dm = linear(pre + "mlp.w1", m, du)
        dx += norm(pre + "ln2", dm, c["xhat2"], c["istd2"])  # residual: now d(x1)
        del du, m, dm

        # attention path, on the grid
        a = _affine(c["xhat1"], w[pre + "ln1.g"], w[pre + "ln1.b"])
        qh, kh, vh = _heads(model, i, a, rows)
        p = c["p"]
        dctx_h = _split_heads(_unpack(linear(pre + "attn.wo", _merge_heads(p @ vh, rows), dx),
                                      rows), cfg.n_heads)
        dp = dctx_h @ vh.transpose(0, 1, 3, 2)
        dvh = p.transpose(0, 1, 3, 2) @ dctx_h
        del vh, dctx_h
        dp -= np.add.reduce(dp * p, axis=-1, keepdims=True)
        dp *= p
        dp *= scale  # d(scores before the scale)
        dqh = dp @ kh
        dkh = dp.transpose(0, 1, 3, 2) @ qh
        del qh, kh, p, dp
        da = linear(pre + "attn.wq", a, _merge_heads(dqh, rows))
        da += linear(pre + "attn.wk", a, _merge_heads(dkh, rows))
        da += linear(pre + "attn.wv", a, _merge_heads(dvh, rows))
        del a, dqh, dkh, dvh
        dx += norm(pre + "ln1", da, c["xhat1"], c["istd1"])  # residual

    grads["embed.tok"] = _scatter_add(arr[rows], cfg.vocab, dx)
    grads["embed.pos"] = _scatter_add(np.nonzero(rows)[1], cfg.max_seq, dx)
    return loss, grads


def _pad_batch(sequences: list[list[int]]) -> list[list[int]]:
    """Right-padded copies; left as lists, so ``_validate_tokens`` sees the ids
    as given and refuses non-integers rather than truncating them."""
    t = max(len(s) for s in sequences)
    return [list(s) + [PAD] * (t - len(s)) for s in sequences]


def _check_items(items) -> None:
    """Refuses ``items`` unless it is a sequence of (prompt, answer) pairs,
    each a sequence; the tokens themselves are checked where they are read."""
    for item in require_sequence("items", items):
        for seq in require_sequence("item", item, 2):
            require_sequence("prompt and answer", seq)


def train_toy(model: ToyModel, items: list[tuple[list[int], list[int]]],
              steps: int = DEFAULT_TRAIN_STEPS, lr: float = DEFAULT_LR,
              seed: int = 0, batch_size: int = DEFAULT_BATCH) -> dict:
    """Plain SGD with global gradient-norm clipping at 1.0, in place.

    Returns a summary with the initial and final running losses.

    The items are checked and laid out once, before step 0, so a bad item
    anywhere in them is refused with the model unchanged. Each row of the
    layout is prompt, answer, EOS, then PAD; a step's batch is its drawn rows
    up to their longest sequence, the targets one column on, and the loss on
    the positions that predict the answer tokens and the EOS.

    On glibc it first sets malloc's trim and mmap thresholds to 32 MiB
    (``_MALLOC_KEEP_BYTES``) for the rest of the process, so a step's freed
    arrays stay in the heap for the next step to reuse; elsewhere it sets
    nothing. With glibc's defaults, the top of the heap goes back to the
    system after each step and the next step faults it back in: tens of
    thousands of page faults per 100 steps.
    """
    if require_instance("model", model, ToyModel).qtensors:
        raise InvalidInput("train the full-precision model, then quantize it; this one "
                           f"has {len(model.qtensors)} quantized weight matrices")
    require_int("steps", steps, 0)
    require_int("batch_size", batch_size, 1)
    if (lr := require_real("lr", lr)) <= 0.0:
        raise InvalidInput(f"lr must be positive, got {lr}")
    if steps == 0:
        return {"steps": 0, "initial_loss": None, "final_loss": None}
    _check_items(items)
    if not items:
        raise InvalidInput("training needs at least one item")
    lengths = np.fromiter((len(seq) for item in items for seq in item), np.int64, 2 * len(items))
    start, stop = lengths[0::2] - 1, lengths[0::2] + lengths[1::2]  # loss on [start, stop)
    if start.min() < 0:  # an empty prompt's loss would start at position -1
        raise InvalidInput("every training item needs a prompt of at least one token")
    # EOS at column stop, and at least one PAD after the longest sequence
    ids = np.full((len(items), stop.max() + 2), PAD, dtype=np.int64)
    ids[np.arange(ids.shape[1]) < stop[:, None]] = require_array(
        "training tokens", [t for item in items for seq in item for t in seq], 1, integer=True)
    ids[np.arange(len(items)), stop] = EOS
    _validate_tokens(model.config, ids[:, :-1])
    if sys.platform.startswith("linux") and hasattr(libc := ctypes.CDLL(None), "mallopt"):
        libc.mallopt.argtypes, libc.mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
        # both: setting either one alone pins the other at glibc's 128 KiB default
        for option in (_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD):
            libc.mallopt(option, _MALLOC_KEEP_BYTES)
    rng = SeededRng(seed).derive(_TRAIN_TAG)
    window = max(1, min(100, steps // 10))
    losses: list[float] = []
    for step in range(steps):
        idx = rng.randints(np.full(batch_size, len(items)))
        width = stop[idx].max() + 1
        col = np.arange(width)
        loss, grads = loss_and_grads(model, ids[idx, :width], ids[idx, 1:width + 1],
                                     (start[idx, None] <= col) & (col < stop[idx, None]))
        if not math.isfinite(loss):
            raise ConvergenceError(f"loss became {loss} at step {step}")
        # a square past the dtype's range reads as inf; np.vdot does not warn
        gnorm = math.sqrt(sum(float(np.vdot(g, g)) for g in grads.values()))
        if gnorm == math.inf:  # sum again over the largest entry: inf only if an entry is
            top = max(float(abs(g).max()) for g in grads.values())
            gnorm = top * math.sqrt(sum(float(np.square(g / top).sum())
                                        for g in grads.values())) if top < math.inf else top
        if not math.isfinite(gnorm):
            raise ConvergenceError(f"gradient norm became {gnorm} at step {step}")
        clip = min(1.0, GRAD_CLIP_NORM / gnorm) if gnorm > 0 else 1.0
        for name, g in grads.items():
            g *= lr * clip
            model.params[name] -= g
        del grads, g
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
    cfg = require_instance("model", model, ToyModel).config
    require_int("max_new_tokens", max_new_tokens, 0)
    if any(len(require_sequence("prompt", p)) == 0 for p in require_sequence("prompts", prompts)):
        raise InvalidInput("every prompt needs at least one token")
    preds: list[list[int]] = [[] for _ in prompts]
    if not prompts or max_new_tokens == 0:
        return preds
    active = np.arange(len(prompts))
    pos = np.array([len(p) - 1 for p in prompts])  # each row's newest token
    # one cache per layer, (key/value, row, head, position, d_head) up to the
    # last position decoding can reach; zeroed, so a masked slot is finite and
    # gets exactly zero weight. Rows leave one layer's cache at a time, so the
    # compaction holds the cache plus one layer's copy, not two caches.
    reach = min(cfg.max_seq, max(map(len, prompts)) + max_new_tokens - 1)
    kv = [np.zeros((2, len(prompts), cfg.n_heads, reach, cfg.d_model // cfg.n_heads), model.dtype)
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
    require_instance("model", model, ToyModel)
    _check_items(items)
    if not items:
        raise InvalidInput("evaluation needs at least one item")
    answers = require_array("answer tokens", [t for _, a in items for t in a], 1, integer=True)
    if answers.size and (answers.min() < 0 or answers.max() >= model.config.vocab):
        raise InvalidInput("answer ids must lie in [0, vocab)")
    preds = greedy_decode(model, [p for p, _ in items], max_new_tokens)
    em_hits, f1_sum, degenerate = 0, 0.0, 0
    for pred, (_, answer) in zip(preds, items):
        answer = list(answer)  # a tuple or an array compares as the list it holds
        if pred == answer:
            em_hits += 1
        f1, flag = _token_f1(pred, answer)
        f1_sum += f1
        degenerate += int(flag)
    n = len(items)
    return EvalResult(exact_match=100.0 * em_hits / n, token_f1=100.0 * f1_sum / n,
                      n_items=n, degenerate_pairs=degenerate)
