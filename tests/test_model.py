import math

import numpy as np
import pytest

import taq.model
from taq.errors import InvalidConfig, InvalidInput
from taq.linalg import SeededRng
from taq.model import (
    EvalResult,
    ModelConfig,
    ToyModel,
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
from taq.tasks import EOS, SEP, ToyTask, gen_task, full_sequence

SMALL = ModelConfig(n_layers=5, d_model=16, n_heads=2, vocab=32, max_seq=16, seed=7)


def small_batch(cfg, rng_seed=3, batch=2, seq=6):
    rng = SeededRng(rng_seed)
    tokens = np.array([[rng.randint(cfg.vocab) for _ in range(seq)]
                       for _ in range(batch)])
    targets = np.array([[rng.randint(cfg.vocab) for _ in range(seq)]
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
            ModelConfig(n_layers=4)


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
            np.testing.assert_allclose(forward_from(model, h, split), full,
                                       atol=1e-12)

    def test_overlength_rejected(self):
        model = init_model(SMALL)
        with pytest.raises(InvalidInput):
            forward(model, np.zeros((1, 17), dtype=np.int64))

    def test_bad_ids_rejected(self):
        model = init_model(SMALL)
        with pytest.raises(InvalidInput):
            forward(model, np.full((1, 4), 32, dtype=np.int64))

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


class TestGradients:
    def test_finite_difference_agreement(self):
        # 1-layer toy transformer at d=8 would need n_layers >= 5 through
        # ModelConfig; build it directly to honor the 1-layer check.
        cfg = object.__new__(ModelConfig)
        object.__setattr__(cfg, "n_layers", 1)
        object.__setattr__(cfg, "d_model", 8)
        object.__setattr__(cfg, "n_heads", 2)
        object.__setattr__(cfg, "vocab", 16)
        object.__setattr__(cfg, "max_seq", 8)
        object.__setattr__(cfg, "seed", 123)
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
            name = names[coord_rng.randint(len(names))]
            flat = model.params[name].reshape(-1)
            j = coord_rng.randint(flat.size)
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


class TestTraining:
    def test_zero_steps_unchanged(self):
        model = init_model(SMALL)
        before = model.clone_params()
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
        assert f1 == 0.0 and flag

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
        # F1 0 by convention, and is counted as a degenerate pair
        result = scripted_evaluate(monkeypatch, [[5], []], [[5], []])
        assert result.exact_match == 100.0
        assert result.token_f1 == pytest.approx(50.0)
        assert result.degenerate_pairs == 1

    def test_em_le_f1_on_model_output(self):
        model = init_model(SMALL)
        items = gen_task(ToyTask("copy", 3, vocab=SMALL.vocab, max_payload=4), 12)
        result = evaluate(model, items, max_new_tokens=6)
        assert 0.0 <= result.exact_match <= result.token_f1 <= 100.0

    def test_deterministic_eval(self):
        model = init_model(SMALL)
        items = gen_task(ToyTask("sortseq", 3, vocab=SMALL.vocab, max_payload=4), 8)
        a = evaluate(model, items, max_new_tokens=6)
        b = evaluate(model, items, max_new_tokens=6)
        assert (a.exact_match, a.token_f1) == (b.exact_match, b.token_f1)


class TestGreedyDecode:
    def test_max_seq_prompt_batched_with_short_one(self):
        # the full-length row ends after one token and must leave the batch
        model = init_model(SMALL)
        rng = SeededRng(29)
        long = [7 + rng.randint(SMALL.vocab - 7) for _ in range(SMALL.max_seq)]
        short = [4, 9, 11, SEP]
        batched = greedy_decode(model, [long, short], max_new_tokens=6)
        assert batched == [greedy_decode(model, [long], max_new_tokens=6)[0],
                           greedy_decode(model, [short], max_new_tokens=6)[0]]
        assert len(batched[0]) <= 1

    def test_random_batch_matches_per_row(self):
        model = init_model(SMALL)
        rng = SeededRng(31)
        prompts = [[rng.randint(SMALL.vocab) for _ in range(1 + rng.randint(SMALL.max_seq))]
                   for _ in range(12)]
        batched = greedy_decode(model, prompts, max_new_tokens=8)
        assert batched == [greedy_decode(model, [p], max_new_tokens=8)[0] for p in prompts]

    def test_empty_prompt_rejected(self):
        with pytest.raises(InvalidInput):
            greedy_decode(init_model(SMALL), [[4, SEP], []])


def test_layer_weight_counts():
    cfg = ModelConfig()
    counts = layer_weight_counts(cfg)
    assert counts == tuple([4 * 64 * 64 + 2 * 64 * 256] * 8)
    assert len(quantizable_names(cfg, 0)) == 6
