import math
import pathlib
import tracemalloc

import numpy as np
import pytest

import taq.model
from taq.alloc import AllocConfig, CostModel, allocate_rank
from taq.errors import InvalidConfig, InvalidInput, InvalidPlan, ModelTooSmall, TrainingDiverged
from taq.linalg import SeededRng
from taq.model import (
    DEFAULT_MAX_NEW_TOKENS,
    EvalResult,
    ModelConfig,
    ToyModel,
    _blocks,
    _final_logits,
    _pad_batch,
    _training_batch,
    embed,
    evaluate,
    forward,
    forward_from,
    forward_prefix,
    greedy_decode,
    init_model,
    layer_weight_counts,
    loss_and_grads,
    param_shapes,
    quantizable_names,
    train_toy,
)
from taq.stats import (Reservoir, StreamingMoments, finalize_profile, spectral_entropy,
                       variance_and_stability)
from taq.tasks import EOS, PAD, SEP, TASK_IDS, ToyTask, gen_task, full_sequence

from oracles import (forward_reference, greedy_decode_recompute, masked_cross_entropy_reference,
                     randint)

SMALL = ModelConfig(n_layers=5, d_model=16, n_heads=2, vocab=32, max_seq=16, seed=7)
# the benchmark's committed default-config checkpoint: a model whose decoded
# rows end at different steps
CHECKPOINT = pathlib.Path(__file__).resolve().parents[1] / "bench" / "weights" / "toy_default.npz"
MIB = 2**20


def traced_peak(call) -> int:
    """Peak bytes numpy and Python allocate during ``call()``."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def checkpoint_model() -> ToyModel:
    cfg = ModelConfig()
    with np.load(CHECKPOINT) as npz:
        return ToyModel(cfg, {name: npz[name] for name, _ in param_shapes(cfg)})


def training_batches(n, size=16, seed=5):
    """``n`` batches of ``size`` items drawn from all three default-config
    tasks, padded and masked as ``train_toy`` builds them."""
    items = [it for tid in TASK_IDS for it in gen_task(ToyTask(tid, 1), 32)]
    rng = SeededRng(seed)
    return [_training_batch(items, rng.randints(np.full(size, len(items))).tolist())
            for _ in range(n)]


def small_batch(cfg, rng_seed=3, batch=2, seq=6):
    rng = SeededRng(rng_seed)
    tokens = np.array([[randint(rng, cfg.vocab) for _ in range(seq)]
                       for _ in range(batch)])
    targets = np.array([[randint(rng, cfg.vocab) for _ in range(seq)]
                        for _ in range(batch)])
    mask = np.zeros((batch, seq))
    mask[:, 2:5] = 1.0
    return tokens, targets, mask


class TestConfig:
    def test_heads_must_divide(self):
        with pytest.raises(InvalidConfig):
            ModelConfig(d_model=10, n_heads=3)

    def test_min_layers(self):
        with pytest.raises(InvalidConfig):
            ModelConfig(n_layers=0)

    def test_three_layers_run_and_allocate_with_one_pinned_edge(self):
        # the layer minimum for edge pinning belongs to the allocator
        cfg = ModelConfig(n_layers=3, d_model=16, n_heads=2, vocab=32, max_seq=16, seed=7)
        reservoirs = [Reservoir(64, cfg.d_model, SeededRng(i)) for i in range(3)]
        moments = [StreamingMoments() for _ in range(3)]

        def capture(i, x):
            for row in x.reshape(-1, cfg.d_model):
                reservoirs[i].offer(row)
            moments[i].update(x)

        tokens, _, _ = small_batch(cfg, batch=4)
        logits = forward(init_model(cfg), tokens, capture=capture)
        assert logits.shape == (4, 6, cfg.vocab) and np.isfinite(logits).all()
        entropies, flags = zip(*map(spectral_entropy, reservoirs))
        variances = [variance_and_stability(m)[0] for m in moments]
        stats, _ = finalize_profile(entropies, flags, variances, 0.5, 0.5)
        relevance = [s.relevance for s in stats]
        cost_model = CostModel(layer_weight_counts(cfg))
        with pytest.raises(ModelTooSmall):
            allocate_rank(relevance, AllocConfig(), cost_model)
        assert allocate_rank(relevance, AllocConfig(edge_pin=1), cost_model).bits == [32, 16, 32]

    @pytest.mark.parametrize("dims", [{"n_heads": 0}, {"n_heads": -4}, {"d_model": 0}],
                             ids=["no-heads", "negative-heads", "no-width"])
    def test_non_positive_dims_rejected(self, dims):
        with pytest.raises(InvalidConfig):
            ModelConfig(**dims)


def test_numpy_integer_config_stored_as_ints():
    cfg = ModelConfig(**{k: np.int64(v) for k, v in vars(SMALL).items()})
    assert cfg == SMALL and all(type(v) is int for v in vars(cfg).values())
    np.testing.assert_array_equal(init_model(cfg).params["embed.tok"],
                                  init_model(SMALL).params["embed.tok"])


def _copy_items(n=4):
    return gen_task(ToyTask("copy", 1, vocab=SMALL.vocab, max_payload=4), n)


@pytest.mark.parametrize("call", [
    lambda: ModelConfig(n_layers=2.5),
    lambda: ModelConfig(vocab=8.5),
    lambda: ModelConfig(seed=1.0),
    lambda: train_toy(init_model(SMALL), _copy_items(), steps=2.5),
    lambda: train_toy(init_model(SMALL), _copy_items(), steps=1, batch_size=2.5),
    lambda: train_toy(init_model(SMALL), _copy_items(), steps=1, seed=0.5),
    lambda: evaluate(init_model(SMALL), _copy_items(), max_new_tokens=2.5),
    lambda: init_model(SMALL).with_quantized_layers({0.5: 4}, 128),
    lambda: init_model(SMALL).with_quantized_layers({"0": 4}, 128),
    lambda: init_model(SMALL).with_quantized_layers({0: 4}, 2.5),
], ids=["fractional-layers", "fractional-vocab", "float-seed", "fractional-steps",
        "fractional-batch", "fractional-train-seed", "fractional-budget",
        "fractional-layer-key", "string-layer-key", "fractional-group-size"])
def test_non_integer_argument_rejected(call):
    with pytest.raises(InvalidInput):
        call()


class TestInit:
    def test_same_seed_identical(self):
        a = init_model(SMALL)
        b = init_model(SMALL)
        for name in a.params:
            np.testing.assert_array_equal(a.params[name], b.params[name])

    def test_different_seed_differs(self):
        from dataclasses import replace
        a = init_model(SMALL)
        b = init_model(replace(SMALL, seed=8))
        assert not np.array_equal(a.params["embed.tok"], b.params["embed.tok"])

    def test_weight_std(self):
        cfg = ModelConfig(n_layers=8, d_model=64, n_heads=4, vocab=64, max_seq=32,
                          seed=1)
        model = init_model(cfg)
        draws = np.concatenate([
            model.params[n].reshape(-1)
            for n, _ in param_shapes(cfg)
            if not n.endswith((".g", ".b"))
        ])
        assert draws.size > 1e5
        assert abs(draws.std() - 0.02) < 0.002

    def test_layer_norms_identity(self):
        model = init_model(SMALL)
        np.testing.assert_array_equal(model.params["layer0.ln1.g"], np.ones((1, 16)))
        np.testing.assert_array_equal(model.params["layer0.ln1.b"], np.zeros((1, 16)))


class TestForward:
    def test_capture_does_not_change_logits(self):
        model = init_model(SMALL)
        tokens, _, _ = small_batch(SMALL)
        seen = []
        plain = forward(model, tokens)
        captured = forward(model, tokens, capture=lambda i, x: seen.append((i, x.copy())))
        np.testing.assert_array_equal(plain, captured)
        assert [i for i, _ in seen] == list(range(SMALL.n_layers))
        assert seen[0][1].shape == (2, 6, SMALL.d_model)

    def test_zero_weights_uniform_logits(self):
        model = init_model(SMALL)
        for name in model.params:
            model.params[name] = np.zeros_like(model.params[name])
        tokens, _, _ = small_batch(SMALL)
        logits = forward(model, tokens)
        assert np.allclose(logits, logits[..., :1])

    def test_prefix_suffix_split_matches_full(self):
        model = init_model(SMALL)
        tokens, _, _ = small_batch(SMALL)
        full = forward(model, tokens)
        for split in (0, 2, SMALL.n_layers):
            h = forward_prefix(model, tokens, split)
            np.testing.assert_array_equal(forward_from(model, h, split), full)

    def test_traced_peak(self):
        # inference keeps no training cache and drops each intermediate once
        # read: one default-config forward over 64 rows of 11 tokens peaks near
        # 2.4 MiB, against 5.4 MiB when every block built the backward's cache
        model = init_model(ModelConfig())
        tokens = small_batch(model.config, batch=64, seq=11)[0]
        assert traced_peak(lambda: forward(model, tokens)) <= 3.5 * MIB

    def test_overlength_rejected(self):
        model = init_model(SMALL)
        with pytest.raises(InvalidInput):
            forward(model, np.zeros((1, 17), dtype=np.int64))

    def test_bad_ids_rejected(self):
        model = init_model(SMALL)
        with pytest.raises(InvalidInput):
            forward(model, np.full((1, 4), 32, dtype=np.int64))

    @pytest.mark.parametrize("tokens", [[[1.5, 2.0]], [[1.0, 2.0]], [[True, False]]],
                             ids=["fraction", "integral-float", "bool"])
    def test_non_integer_tokens_rejected(self, tokens):
        # a float id used to be truncated to an integer one
        model = init_model(SMALL)
        with pytest.raises(InvalidInput):
            forward(model, tokens)
        with pytest.raises(InvalidInput):
            loss_and_grads(model, tokens, [[2, 3]], [[1.0, 1.0]])

    def test_ragged_tokens_rejected(self):
        with pytest.raises(InvalidInput):
            forward(init_model(SMALL), [[1, 2], [3]])

    @pytest.mark.parametrize("weight_scale", [1.0, 10.0], ids=["init", "sharp"])
    @pytest.mark.parametrize("length", [5, 11])
    def test_matches_reference_bit_for_bit(self, length, weight_scale):
        # default config and a 64-prompt batch right-padded to `length`; x10
        # weights make attention peaked, so scores span a wide range
        model = init_model(ModelConfig())
        for name, w in model.params.items():
            if not name.endswith((".g", ".b")):
                model.params[name] = w * weight_scale
        rng = SeededRng(length)
        prompts = [[randint(rng, 64) for _ in range(1 + randint(rng, length))]
                   for _ in range(63)] + [[5] * length]
        tokens = _pad_batch(prompts)
        got, want = [], []
        logits = forward(model, tokens, capture=lambda i, x: got.append(x.copy()))
        expected = forward_reference(model, tokens, capture=lambda i, x: want.append(x))
        assert np.array_equal(logits, expected)
        assert len(got) == len(want) == model.config.n_layers
        for g, w in zip(got, want):
            assert np.array_equal(g, w)

    def test_no_underflow_in_forward_or_decode(self):
        # masked attention logits must not reach exp, where they underflow
        model = init_model(SMALL)
        tokens, _, _ = small_batch(SMALL, batch=4)
        items = gen_task(ToyTask("copy", 3, vocab=SMALL.vocab, max_payload=4), 8)
        with np.errstate(under="raise"):
            forward(model, tokens)
            evaluate(model, items, max_new_tokens=6)

    @pytest.mark.parametrize("key_gain", [20.0, -20.0], ids=["below-max", "above-max"])
    def test_masked_scores_far_from_the_row_max(self, key_gain):
        # token 4 attends only itself, at score +-1600; its masked score on
        # the later token 5 is 0, so exp(score - max) would underflow or
        # overflow (inf * 0 = nan) if masked entries reached exp
        cfg = ModelConfig(n_layers=1, d_model=8, n_heads=2, vocab=16, max_seq=8)
        model = init_model(cfg)
        e4, e5 = np.zeros(8), np.zeros(8)
        e4[:2], e5[2:4] = (1.0, -1.0), (1.0, -1.0)
        model.params["embed.tok"][[4, 5]] = e4, e5
        model.params["embed.pos"][:] = 0.0
        u = e4 / np.linalg.norm(e4)
        model.params["layer0.attn.wq"] = 20.0 * np.outer(u, u)
        model.params["layer0.attn.wk"] = key_gain * np.eye(8)
        with np.errstate(all="raise"):
            assert np.isfinite(forward(model, [[4, 5]])).all()

    def test_empty_tokens_allowed(self):
        assert embed(init_model(SMALL), [[]]).shape == (1, 0, SMALL.d_model)

    def test_quantized_deviation_monotone(self):
        cfg = ModelConfig(n_layers=5, d_model=32, n_heads=4, vocab=32, max_seq=16,
                          seed=9)
        model = init_model(cfg)
        tokens, _, _ = small_batch(cfg)
        base = forward(model, tokens)
        devs = {}
        for bits in (4, 8, 16):
            qm = model.with_quantized_layers({i: bits for i in range(5)}, 32)
            devs[bits] = float(np.abs(forward(qm, tokens) - base).mean())
        assert devs[4] >= devs[8] >= devs[16]
        assert devs[16] < 1e-3


class TestQuantizedModel:
    def test_own_param_dict_holding_the_dequantized_weights(self):
        m = init_model(SMALL)
        qm = m.with_quantized_layers({1: 4, 3: 8}, 64)
        assert qm.params is not m.params
        assert list(qm.params) == list(m.params)
        quantized = set(quantizable_names(SMALL, 1) + quantizable_names(SMALL, 3))
        assert set(qm.qtensors) == quantized
        for name in m.params:
            if name in quantized:
                assert qm.params[name] is qm.qtensors[name].weights
            else:
                assert qm.params[name] is m.params[name]
        before = dict(m.params)
        for name in ("embed.tok", "layer1.attn.wq"):
            qm.params[name] = np.zeros_like(m.params[name])
        assert all(m.params[name] is before[name] for name in before)

    def test_training_refused_and_parent_untouched(self):
        # post-training quantization: train the full-precision model, then quantize
        m = init_model(SMALL)
        before = {k: v.copy() for k, v in m.params.items()}
        qm = m.with_quantized_layers({2: 4}, 128)
        items = gen_task(ToyTask("copy", 1, vocab=SMALL.vocab, max_payload=4), 8)
        with pytest.raises(InvalidInput):
            train_toy(qm, items, steps=2, batch_size=4)
        for name in before:
            np.testing.assert_array_equal(m.params[name], before[name])

    @pytest.mark.parametrize("layer", [SMALL.n_layers, -1], ids=["past-last", "negative"])
    def test_layer_outside_model_rejected(self, layer):
        with pytest.raises(InvalidPlan):
            init_model(SMALL).with_quantized_layers({layer: 4}, 128)


class TestGradients:
    @pytest.mark.parametrize("cfg", [
        ModelConfig(), ModelConfig(n_layers=1, d_model=8, n_heads=2, vocab=16, max_seq=8),
    ], ids=["default", "one-layer"])
    def test_every_parameter_gets_a_finite_gradient(self, cfg):
        model = init_model(cfg)
        tokens, targets, mask = small_batch(cfg)
        _, grads = loss_and_grads(model, tokens, targets, mask)
        assert list(grads) == list(model.params)
        for name, p in model.params.items():
            assert grads[name].shape == p.shape, name
            assert np.isfinite(grads[name]).all(), name

    @pytest.mark.parametrize("targets, mask", [
        ([[40, 1]], [[1.0, 1.0]]),
        ([[4]], [[1.0, 1.0]]),
        ([[4, 1]], [[1.0]]),
        ([[4, 1]], [[1.0, float("nan")]]),
        ([[4, 1]], [[1.0, 1.0], [1.0]]),
    ], ids=["target-out-of-vocab", "targets-shape", "mask-shape", "nan-mask", "ragged-mask"])
    def test_bad_targets_or_mask_rejected(self, targets, mask):
        with pytest.raises(InvalidInput):
            loss_and_grads(init_model(SMALL), [[1, 2]], targets, mask)

    def test_traced_peak(self):
        # the mask selects columns 2-4 of 20, so only the first 5 columns of
        # each row are computed: one call on the default config with 16 rows
        # peaks near 9.5 MiB, against 16.8 MiB when every position was computed
        model = init_model(ModelConfig())
        tokens, targets, mask = small_batch(model.config, batch=16, seq=20)
        assert traced_peak(lambda: loss_and_grads(model, tokens, targets, mask)) <= 12 * MIB

    def test_traced_peak_on_a_training_batch(self):
        # 16 items of the three tasks, right-padded: near 12.7 MiB, against
        # 16.8 MiB when padding and the positions past the loss were computed
        model = init_model(ModelConfig())
        tokens, targets, mask = training_batches(1)[0]
        assert traced_peak(lambda: loss_and_grads(model, tokens, targets, mask)) <= 15 * MIB

    def test_finite_difference_agreement(self):
        cfg = ModelConfig(n_layers=1, d_model=8, n_heads=2, vocab=16, max_seq=8, seed=123)
        rng = SeededRng(5)
        params = {}
        for name, shape in param_shapes(cfg):
            if name.endswith(".g"):
                params[name] = np.ones(shape)
            elif name.endswith(".b"):
                params[name] = np.zeros(shape)
            else:
                params[name] = rng.normals(shape[0] * shape[1]).reshape(shape) * 0.05
        model = ToyModel(cfg, params)
        tokens = np.array([[1, 5, 9, 12, 3]])
        targets = np.array([[5, 9, 12, 3, 2]])
        mask = np.array([[0.0, 1.0, 1.0, 1.0, 1.0]])

        loss, grads = loss_and_grads(model, tokens, targets, mask)
        names = [n for n, _ in param_shapes(cfg)]
        coord_rng = SeededRng(77)
        eps = 1e-6
        checked = 0
        while checked < 20:
            name = names[randint(coord_rng, len(names))]
            flat = model.params[name].reshape(-1)
            j = randint(coord_rng, flat.size)
            orig = flat[j]
            flat[j] = orig + eps
            up, _ = loss_and_grads(model, tokens, targets, mask)
            flat[j] = orig - eps
            down, _ = loss_and_grads(model, tokens, targets, mask)
            flat[j] = orig
            fd = (up - down) / (2 * eps)
            analytic = grads[name].reshape(-1)[j]
            denom = max(abs(fd), abs(analytic), 1e-8)
            assert abs(fd - analytic) / denom < 1e-4, (name, j, fd, analytic)
            checked += 1


class TestPackedPositions:
    """``loss_and_grads`` computes only the positions up to each row's last
    loss position; these pin what that may and may not change."""

    @pytest.mark.parametrize("hole", [False, True], ids=["answer-mask", "mask-with-hole"])
    def test_loss_matches_reference_forward(self, hole):
        # a packing that dropped or kept one position too many moves the loss
        # far beyond 1e-12 on the trained checkpoint
        model = checkpoint_model()
        for tokens, targets, mask in training_batches(3):
            if hole:
                mask[::2, :3] = 1.0
                mask[::2, 3:6] = 0.0
            loss, _ = loss_and_grads(model, tokens, targets, mask)
            want = masked_cross_entropy_reference(model, tokens, targets, mask)
            assert abs(loss - want) <= 1e-12 * abs(want)

    def test_positions_past_the_last_loss_position_never_read(self):
        model = init_model(ModelConfig())
        rng = SeededRng(8)
        for tokens, targets, mask in training_batches(5, seed=6):
            want = loss_and_grads(model, tokens, targets, mask)
            for r in range(len(tokens)):
                after = np.flatnonzero(mask[r])[-1] + 1
                n = tokens.shape[1] - after
                tokens[r, after:] = rng.randints(np.full(n, model.config.vocab))
                targets[r, after:] = rng.randints(np.full(n, model.config.vocab))
            loss, grads = loss_and_grads(model, tokens, targets, mask)
            assert loss == want[0]
            for name, g in want[1].items():
                np.testing.assert_array_equal(grads[name], g, err_msg=name)

    @pytest.mark.parametrize("grow", ["pad-columns", "unmasked-row"])
    def test_unmasked_padding_changes_only_summation_order(self, grow):
        # not bit for bit: wider rows lengthen the attention products' inner
        # axis, and an extra row reorders the loss's pairwise sum
        model = init_model(ModelConfig())
        for tokens, targets, mask in training_batches(3, seed=7):
            want_loss, want_grads = loss_and_grads(model, tokens, targets, mask)
            if grow == "pad-columns":
                tokens, targets, mask = (np.pad(a, ((0, 0), (0, 3)), constant_values=v)
                                         for a, v in ((tokens, PAD), (targets, PAD), (mask, 0)))
            else:
                tokens, targets, mask = (np.concatenate([a, a[:1] * k])
                                         for a, k in ((tokens, 1), (targets, 1), (mask, 0)))
            loss, grads = loss_and_grads(model, tokens, targets, mask)
            assert abs(loss - want_loss) <= 1e-12 * abs(want_loss)
            for name, g in want_grads.items():
                assert np.abs(grads[name] - g).max() <= 1e-12 * np.abs(g).max(), name

    def test_positions_inside_a_mask_hole_stay_context(self):
        model = init_model(ModelConfig())
        tokens, targets, mask = training_batches(1)[0]
        mask[:] = 0.0
        mask[:, [1, 5]] = 1.0
        loss, _ = loss_and_grads(model, tokens, targets, mask)
        tokens[:, 3] = (tokens[:, 3] + 1) % model.config.vocab
        assert loss_and_grads(model, tokens, targets, mask)[0] != loss


class TestTraining:
    def test_zero_steps_unchanged(self):
        model = init_model(SMALL)
        before = {k: v.copy() for k, v in model.params.items()}
        train_toy(model, gen_task(ToyTask("copy", 1, vocab=SMALL.vocab), 8), steps=0)
        for name in before:
            np.testing.assert_array_equal(model.params[name], before[name])

    def test_loss_decreases(self):
        cfg = ModelConfig(n_layers=5, d_model=32, n_heads=4, vocab=32, max_seq=24,
                          seed=4)
        model = init_model(cfg)
        items = gen_task(ToyTask("copy", 2, vocab=cfg.vocab, max_payload=5), 64)
        summary = train_toy(model, items, steps=300, lr=0.5, seed=11, batch_size=8)
        assert summary["final_loss"] < summary["initial_loss"]

    def test_deterministic(self):
        cfg = ModelConfig(n_layers=5, d_model=16, n_heads=2, vocab=32, max_seq=24,
                          seed=4)
        items = gen_task(ToyTask("copy", 2, vocab=cfg.vocab, max_payload=4), 32)

        def run():
            model = init_model(cfg)
            train_toy(model, items, steps=50, lr=0.3, seed=9, batch_size=4)
            return model.params["layer0.attn.wq"].copy()

        np.testing.assert_array_equal(run(), run())

    def test_nan_parameter_diverges(self):
        cfg = ModelConfig(n_layers=1, d_model=8, n_heads=2, vocab=16, max_seq=16)
        model = init_model(cfg)
        model.params["unembed.w"][0, 0] = np.nan
        items = gen_task(ToyTask("copy", 1, vocab=cfg.vocab, max_payload=4), 4)
        with pytest.raises(TrainingDiverged, match="loss became nan at step 0"):
            train_toy(model, items, steps=2, batch_size=2)

    @pytest.mark.parametrize("kwargs", [
        {"batch_size": 0}, {"lr": float("nan")}, {"lr": float("inf")}, {"lr": 0.0},
    ], ids=["no-batch", "nan-lr", "inf-lr", "zero-lr"])
    def test_bad_arguments_rejected_before_first_step(self, kwargs):
        model = init_model(SMALL)
        before = {k: v.copy() for k, v in model.params.items()}
        items = gen_task(ToyTask("copy", 1, vocab=SMALL.vocab, max_payload=4), 4)
        with pytest.raises(InvalidInput):
            train_toy(model, items, steps=1, **kwargs)
        for name in before:
            np.testing.assert_array_equal(model.params[name], before[name])

    def test_empty_prompt_rejected_before_first_step(self):
        # batched with a good item, its loss-mask slice would start at -1 and
        # select nothing, so the item would silently drop out of the loss
        model = init_model(SMALL)
        before = {k: v.copy() for k, v in model.params.items()}
        with pytest.raises(InvalidInput):
            train_toy(model, [([], [9, 10]), ([1, 4, 9, 2], [9])], steps=2, batch_size=2)
        for name in before:
            np.testing.assert_array_equal(model.params[name], before[name])

    def test_batch_indices_match_a_randint_loop(self, monkeypatch):
        # one randints draw per step gives the indices of one randint per index
        seen, batch = [], taq.model._training_batch
        monkeypatch.setattr(taq.model, "_training_batch",
                            lambda items, idx: seen.append(idx) or batch(items, idx))
        items = gen_task(ToyTask("copy", 1, vocab=SMALL.vocab, max_payload=4), 5)
        train_toy(init_model(SMALL), items, steps=3, seed=4, batch_size=6)
        rng = SeededRng(4).derive(taq.model._TRAIN_TAG)
        assert seen == [[randint(rng, 5) for _ in range(6)] for _ in range(3)]


def scripted_evaluate(monkeypatch, preds, answers) -> EvalResult:
    """evaluate() with greedy_decode replaced by a fixed list of predictions."""
    prompts = [[4, 7 + i, SEP] for i in range(len(answers))]

    def decode(model, got_prompts, max_new_tokens):
        assert got_prompts == prompts
        return preds

    monkeypatch.setattr(taq.model, "greedy_decode", decode)
    return evaluate(init_model(SMALL), list(zip(prompts, answers)))


class TestEvaluate:
    def test_perfect_predictions(self):
        from taq.model import _token_f1
        assert _token_f1([4, 5], [4, 5]) == (1.0, False)

    def test_half_overlap_f1(self):
        from taq.model import _token_f1
        f1, flag = _token_f1([4, 9], [4, 7])
        assert f1 == pytest.approx(0.5)
        assert not flag

    def test_both_empty_flagged(self):
        from taq.model import _token_f1
        f1, flag = _token_f1([], [])
        assert f1 == 1.0 and flag

    def test_hand_scored_mixed_batch(self, monkeypatch):
        preds = [[5, 6], [7], [8, 9, 10], [11], []]
        answers = [[5, 6], [7], [8, 9, 11], [12], [13]]
        result = scripted_evaluate(monkeypatch, preds, answers)
        assert result.exact_match == pytest.approx(40.0)
        # items: 1.0, 1.0, 2/3, 0, 0 -> mean 0.5333...
        assert result.token_f1 == pytest.approx(100 * (2 + 2 / 3) / 5)
        assert (result.n_items, result.degenerate_pairs) == (5, 0)

    def test_both_empty_item_through_evaluate(self, monkeypatch):
        # an empty prediction of an empty answer is an exact match, scores
        # F1 1 as in the SQuAD scorer, and is counted as a degenerate pair
        result = scripted_evaluate(monkeypatch, [[5], []], [[5], []])
        assert result.exact_match == 100.0
        assert result.token_f1 == pytest.approx(100.0)
        assert result.degenerate_pairs == 1

    def test_em_le_f1_on_model_output(self):
        model = init_model(SMALL)
        items = gen_task(ToyTask("copy", 3, vocab=SMALL.vocab, max_payload=4), 12)
        result = evaluate(model, items, max_new_tokens=6)
        assert 0.0 <= result.exact_match <= result.token_f1 <= 100.0

    def test_negative_budget_rejected(self):
        items = gen_task(ToyTask("copy", 3, vocab=SMALL.vocab, max_payload=4), 2)
        with pytest.raises(InvalidInput):
            evaluate(init_model(SMALL), items, max_new_tokens=-1)

    @pytest.mark.parametrize("prompt", [[1.5, 2], [1, 2.0], [[1], 2]],
                             ids=["fraction", "integral-float", "nested"])
    def test_non_integer_prompt_rejected(self, prompt):
        # padding used to truncate a float id to an integer one
        with pytest.raises(InvalidInput):
            evaluate(init_model(SMALL), [(prompt, [3])])

    def test_deterministic_eval(self):
        model = init_model(SMALL)
        items = gen_task(ToyTask("sortseq", 3, vocab=SMALL.vocab, max_payload=4), 8)
        a = evaluate(model, items, max_new_tokens=6)
        b = evaluate(model, items, max_new_tokens=6)
        assert (a.exact_match, a.token_f1) == (b.exact_match, b.token_f1)

    def test_traced_peak(self):
        # 16 copy items on the trained checkpoint, every layer at 4 bits: rows
        # end at different steps, and each leaves the key/value cache one layer
        # at a time. The call peaks near 3.9 MiB, against 6.1 MiB when the
        # whole cache was copied at once and every block kept a training cache.
        model = checkpoint_model()
        qm = model.with_quantized_layers(dict.fromkeys(range(model.config.n_layers), 4), 128)
        items = gen_task(ToyTask("copy", 1), 16)
        assert traced_peak(lambda: evaluate(qm, items)) <= 4.5 * MIB


class TestGreedyDecode:
    def test_max_seq_prompt_batched_with_short_one(self):
        # the full-length row ends after one token and must leave the batch
        model = init_model(SMALL)
        rng = SeededRng(29)
        long = [7 + randint(rng, SMALL.vocab - 7) for _ in range(SMALL.max_seq)]
        short = [4, 9, 11, SEP]
        batched = greedy_decode(model, [long, short], max_new_tokens=6)
        assert batched == [greedy_decode(model, [long], max_new_tokens=6)[0],
                           greedy_decode(model, [short], max_new_tokens=6)[0]]
        assert len(batched[0]) <= 1

    def test_random_batch_matches_per_row(self):
        model = init_model(SMALL)
        rng = SeededRng(31)
        prompts = [[randint(rng, SMALL.vocab) for _ in range(1 + randint(rng, SMALL.max_seq))]
                   for _ in range(12)]
        batched = greedy_decode(model, prompts, max_new_tokens=8)
        assert batched == [greedy_decode(model, [p], max_new_tokens=8)[0] for p in prompts]

    def test_empty_prompt_rejected(self):
        with pytest.raises(InvalidInput):
            greedy_decode(init_model(SMALL), [[4, SEP], []])


def ragged_prompts(cfg, seed, n=12):
    rng = SeededRng(seed)
    return [[randint(rng, cfg.vocab) for _ in range(1 + randint(rng, cfg.max_seq))]
            for _ in range(n)]


@pytest.fixture(scope="module")
def trained_small():
    model = init_model(SMALL)
    items = gen_task(ToyTask("copy", 5, vocab=SMALL.vocab, max_payload=4), 64)
    train_toy(model, items, steps=150, lr=0.5, seed=3, batch_size=8)
    return model, items


class TestCachedDecode:
    """greedy_decode against the full-recompute oracle, prediction for prediction."""

    @pytest.mark.parametrize("seed", [41, 43, 47])
    def test_ragged_batch_on_init_model(self, seed):
        model = init_model(SMALL)
        prompts = ragged_prompts(SMALL, seed)
        assert greedy_decode(model, prompts, 10) == greedy_decode_recompute(model, prompts, 10)

    def test_trained_model(self, trained_small):
        model, items = trained_small
        prompts = [p for p, _ in items[:24]] + ragged_prompts(SMALL, 53, n=8)
        preds = greedy_decode(model, prompts)
        assert preds == greedy_decode_recompute(model, prompts)
        # training taught it to stop: some rows end at EOS before the budget
        assert any(len(p) < DEFAULT_MAX_NEW_TOKENS for p in preds[:24])

    def test_quantized_model(self, trained_small):
        model, items = trained_small
        qm = model.with_quantized_layers({0: 4, 1: 8, 2: 4, 3: 16, 4: 4}, 16)
        prompts = [p for p, _ in items[:16]] + ragged_prompts(SMALL, 59, n=8)
        assert greedy_decode(qm, prompts) == greedy_decode_recompute(qm, prompts)

    def test_max_seq_prompt_with_short_ones(self):
        model = init_model(SMALL)
        full = ragged_prompts(SMALL, 61, n=1)[0][:1] * SMALL.max_seq
        prompts = [[4, 9, SEP], full, [5, 6, 7, 8, 9, SEP], full[:-1]]
        preds = greedy_decode(model, prompts, 12)
        assert preds == greedy_decode_recompute(model, prompts, 12)
        assert len(preds[1]) <= 1 and len(preds[3]) <= 1

    @pytest.mark.parametrize("budget", [0, 1])
    def test_tiny_budgets(self, budget):
        model = init_model(SMALL)
        prompts = ragged_prompts(SMALL, 67, n=6)
        preds = greedy_decode(model, prompts, budget)
        assert preds == greedy_decode_recompute(model, prompts, budget)
        assert all(len(p) <= budget for p in preds)

    def test_no_prompts(self):
        assert greedy_decode(init_model(SMALL), []) == []

    def test_negative_budget_rejected(self):
        with pytest.raises(InvalidInput):
            greedy_decode(init_model(SMALL), [[4, SEP]], max_new_tokens=-1)

    def test_cached_step_logits_match_full_forward(self, trained_small):
        # prefill ragged prompts, then one cached step per row at its own
        # position; the step's logits must equal forward() over the whole
        # sequence at that position
        model, _ = trained_small
        cfg = model.config
        prompts = ragged_prompts(SMALL, 71, n=6)
        prompts = [p[: cfg.max_seq - 1] for p in prompts]
        nxt = np.array([(7 * i + 3) % cfg.vocab for i in range(len(prompts))])
        pos = np.array([len(p) for p in prompts])
        kv = [np.zeros((2, len(prompts), cfg.n_heads, cfg.max_seq, cfg.d_model // cfg.n_heads))
              for _ in range(cfg.n_layers)]
        _blocks(model, embed(model, _pad_batch(prompts)), 0, cfg.n_layers, kv=kv)
        x = _blocks(model, embed(model, nxt[:, None], pos[:, None]), 0, cfg.n_layers, kv=kv,
                    pos=pos[:, None])[:, 0]
        step = _final_logits(model, x)
        for row, p in enumerate(prompts):
            full = forward(model, np.array([p + [int(nxt[row])]]))[0, -1]
            rel = np.abs(step[row] - full).max() / np.abs(full).max()
            assert rel <= 1e-12, (row, rel)


def test_layer_weight_counts():
    cfg = ModelConfig()
    counts = layer_weight_counts(cfg)
    assert counts == tuple([4 * 64 * 64 + 2 * 64 * 256] * 8)
    assert len(quantizable_names(cfg, 0)) == 6
