"""Independent reference implementations used to pin expected test values.

These deliberately avoid the code paths they check: plain loops, closed
formulas, and exhaustive enumeration only.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from taq.errors import InvalidInput
from taq.linalg import SeededRng
from taq.model import DEFAULT_MAX_NEW_TOKENS, LN_EPS, _pad_batch, forward
from taq.tasks import (_GEN_TAG, EOS, N_RESERVED, PAYLOAD_MIN, copy_answer, make_prompt,
                       modadd_answer, sortseq_answer)


def randint(rng: SeededRng, n: int) -> int:
    """Uniform integer in [0, n): one ``next_u64`` reduced modulo n, the draw
    ``SeededRng.randints`` makes per bound."""
    return rng.next_u64() % n


def gram_triple_loop(z: np.ndarray) -> np.ndarray:
    r, d = z.shape
    k = np.zeros((r, r))
    for i in range(r):
        for j in range(r):
            acc = 0.0
            for t in range(d):
                acc += z[i, t] * z[j, t]
            k[i, j] = acc / r
    return k


def charpoly_coeffs(a: np.ndarray) -> np.ndarray:
    """Faddeev-LeVerrier coefficients of det(lambda I - A).

    Returns [1, c1, ..., cn] so that p(l) = l^n + c1 l^(n-1) + ... + cn.
    Uses only traces and matrix products, independent of any eigensolver.
    """
    n = a.shape[0]
    coeffs = [1.0]
    m = np.zeros_like(a)
    c = 1.0
    for k in range(1, n + 1):
        m = a @ m + c * np.eye(n)
        c = -np.trace(a @ m) / k
        coeffs.append(c)
    return np.array(coeffs)


def charpoly_roots(a: np.ndarray) -> np.ndarray:
    """Eigenvalues of a small symmetric matrix as roots of det(K - lambda I).

    np.roots seeds the values; a few Newton steps on the characteristic
    polynomial polish them well below 1e-10 for the simple roots that random
    symmetric matrices produce.
    """
    coeffs = charpoly_coeffs(a)
    deriv = np.polyder(coeffs)
    roots = np.roots(coeffs).real.astype(np.float64)
    for _ in range(4):
        denom = np.polyval(deriv, roots)
        safe = np.abs(denom) > 1e-30
        roots = np.where(safe, roots - np.polyval(coeffs, roots) / np.where(safe, denom, 1.0), roots)
    return np.sort(roots)[::-1]


def two_pass_variance(values: np.ndarray) -> float:
    mean = sum(float(v) for v in values) / len(values)
    return sum((float(v) - mean) ** 2 for v in values) / len(values)


def minmax_quantize_loop(flat, bits: int, group_size: int):
    """Group-wise min-max quantization one group and one element at a time.

    Returns (codes, scales, zero_points, weights) as flat arrays. The scale
    spans the group range with a 1e-12 floor, the zero-point is the group
    min, codes round half away from zero and are clamped to [0, 2^bits - 1].
    """
    levels = 2 ** bits - 1
    codes, scales, zeros, weights = [], [], [], []
    for start in range(0, len(flat), group_size):
        group = [float(v) for v in flat[start:start + group_size]]
        lo, hi = min(group), max(group)
        scale = max((hi - lo) / levels, 1e-12)
        scales.append(scale)
        zeros.append(lo)
        for x in group:
            t = (x - lo) / scale
            code = math.floor(abs(t) + 0.5) * (1 if t >= 0 else -1)
            code = min(max(code, 0), levels)
            codes.append(code)
            weights.append(code * scale + lo)
    return np.array(codes), np.array(scales), np.array(zeros), np.array(weights)


def knapsack_exhaustive(relevance, weight_counts, budget, bit_choices=(4, 8, 16)):
    """Best plan over all bit_choices^N by plain enumeration.

    Maximizes sum(relevance * bits) subject to sum(count * bits) <= budget;
    the first optimum in product order wins. None when no plan fits.
    """
    best, best_gain = None, -math.inf
    for combo in itertools.product(bit_choices, repeat=len(relevance)):
        if sum(c * b for c, b in zip(weight_counts, combo)) > budget:
            continue
        gain = sum(r * b for r, b in zip(relevance, combo))
        if gain > best_gain:
            best, best_gain = list(combo), gain
    return best


def greedy_decode_recompute(model, prompts: list[list[int]],
                            max_new_tokens: int = DEFAULT_MAX_NEW_TOKENS) -> list[list[int]]:
    """Greedy decoding that forwards every active row's whole prefix through
    all blocks for each new token, with no key/value cache. A row leaves the
    batch once it emits EOS or reaches max_seq."""
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


def reservoir_reference(rows, capacity: int, rng) -> tuple[np.ndarray, int]:
    """Algorithm R (Vitter 1985) one offer at a time, one ``randint`` per
    offer past the fill. Returns the kept rows and the number offered."""
    kept: list = []
    seen = 0
    for row in rows:
        seen += 1
        if len(kept) < capacity:
            kept.append(row)
            continue
        j = randint(rng, seen)
        if j < capacity:
            kept[j] = row
    return np.array(kept), seen


def gen_task_loop(task, n: int) -> list[tuple[list[int], list[int]]]:
    """``gen_task`` one ``randint`` per token, in stream order."""
    rng = SeededRng(task.seed).derive(_GEN_TAG[task.id])
    span = task.vocab - PAYLOAD_MIN
    items = []
    for _ in range(n):
        if task.id == "modadd":
            while True:
                a = PAYLOAD_MIN + randint(rng, span)
                b = PAYLOAD_MIN + randint(rng, span)
                answer = modadd_answer(a, b, task.vocab)
                if answer[0] >= N_RESERVED:
                    break
            payload = [a, b]
        else:
            length = task.min_payload + randint(rng, task.max_payload - task.min_payload + 1)
            payload = [PAYLOAD_MIN + randint(rng, span) for _ in range(length)]
            answer = copy_answer(payload) if task.id == "copy" else sortseq_answer(payload)
        items.append((make_prompt(task.id, payload), answer))
    return items


def forward_reference(model, tokens, capture=None) -> np.ndarray:
    """The toy model's forward pass written plainly: 3-D broadcast matmuls,
    an additive -1e30 causal mask and an out-of-place softmax."""
    cfg = model.config
    w = model.params
    tokens = np.asarray(tokens)
    t = tokens.shape[1]
    scale = 1.0 / math.sqrt(cfg.d_model // cfg.n_heads)

    def layer_norm(x, g, b):
        mu = x.mean(axis=-1, keepdims=True)
        xc = x - mu
        var = (xc * xc).mean(axis=-1, keepdims=True)
        istd = 1.0 / np.sqrt(var + LN_EPS)
        return xc * istd * g + b

    def softmax(z):
        z = z - z.max(axis=-1, keepdims=True)
        e = np.exp(z)
        return e / e.sum(axis=-1, keepdims=True)

    def split_heads(x):
        b, t, d = x.shape
        return x.reshape(b, t, cfg.n_heads, d // cfg.n_heads).transpose(0, 2, 1, 3)

    def merge_heads(x):
        b, h, t, dh = x.shape
        return x.transpose(0, 2, 1, 3).reshape(b, t, h * dh)

    x = w["embed.tok"][tokens] + w["embed.pos"][:t]
    causal = np.where(np.arange(t) <= np.arange(t)[:, None], 0.0, -1e30)
    for i in range(cfg.n_layers):
        pre = f"layer{i}."
        a = layer_norm(x, w[pre + "ln1.g"], w[pre + "ln1.b"])
        qh = split_heads(a @ w[pre + "attn.wq"])
        kh = split_heads(a @ w[pre + "attn.wk"])
        vh = split_heads(a @ w[pre + "attn.wv"])
        p = softmax(qh @ kh.transpose(0, 1, 3, 2) * scale + causal)
        x1 = x + merge_heads(p @ vh) @ w[pre + "attn.wo"]
        m = layer_norm(x1, w[pre + "ln2.g"], w[pre + "ln2.b"])
        x = x1 + np.maximum(m @ w[pre + "mlp.w1"], 0.0) @ w[pre + "mlp.w2"]
        if capture is not None:
            capture(i, x)
    return layer_norm(x, w["ln_f.g"], w["ln_f.b"]) @ w["unembed.w"]


def masked_cross_entropy_reference(model, tokens, targets, mask) -> float:
    """The masked mean cross-entropy of ``forward_reference`` logits over
    every position of the padded batch."""
    z = forward_reference(model, tokens)
    z = z - z.max(axis=-1, keepdims=True)
    logp = z - np.log(np.exp(z).sum(axis=-1, keepdims=True))
    picked = np.take_along_axis(logp, np.asarray(targets)[..., None], axis=-1)[..., 0]
    return float(-(mask * picked).sum() / mask.sum())
