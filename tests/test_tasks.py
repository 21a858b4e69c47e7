import numpy as np
import pytest

from taq.errors import InvalidInput
from taq.tasks import (
    BOS,
    N_RESERVED,
    PAYLOAD_MIN,
    SEP,
    TASK_MARKER,
    ToyTask,
    gen_task,
)

from oracles import gen_task_loop


class TestAnswerRules:
    """Each answer rule, read off the items ``gen_task`` writes."""

    def test_copy(self):
        items = gen_task(ToyTask("copy", seed=7), 15)
        assert any(p[2:-1] != sorted(p[2:-1]) for p, _ in items)  # order is kept, not sorted
        for prompt, answer in items:
            assert answer == prompt[2:-1]

    def test_modadd_wraps_at_vocab(self):
        items = gen_task(ToyTask("modadd", seed=7), 15)
        assert any(sum(p[2:-1]) >= 64 for p, _ in items)
        for prompt, answer in items:
            a, b = prompt[2:-1]
            assert answer == [a + b - 64 if a + b >= 64 else a + b]

    def test_sortseq(self):
        items = gen_task(ToyTask("sortseq", seed=7), 15)
        assert any(p[2:-1] != sorted(p[2:-1]) for p, _ in items)
        for prompt, answer in items:
            assert answer == sorted(prompt[2:-1])


class TestGenTask:
    def test_deterministic(self):
        a = gen_task(ToyTask("copy", seed=3), 10)
        b = gen_task(ToyTask("copy", seed=3), 10)
        assert a == b

    def test_different_seeds_differ(self):
        a = gen_task(ToyTask("sortseq", seed=1), 10)
        b = gen_task(ToyTask("sortseq", seed=2), 10)
        assert a != b

    def test_prompt_structure(self):
        for task_id in ("copy", "modadd", "sortseq"):
            items = gen_task(ToyTask(task_id, seed=5), 20)
            for prompt, answer in items:
                assert prompt[0] == BOS
                assert prompt[1] == TASK_MARKER[task_id]
                assert prompt[-1] == SEP
                payload = prompt[2:-1]
                assert all(t >= PAYLOAD_MIN for t in payload)
                assert all(t >= N_RESERVED for t in answer)

    def test_modadd_avoids_reserved_answer_ids(self):
        items = gen_task(ToyTask("modadd", seed=11), 300)
        assert all(answer[0] >= N_RESERVED for _, answer in items)

    @pytest.mark.parametrize("task_id", ["copy", "modadd", "sortseq"])
    @pytest.mark.parametrize("fields", [
        {}, {"min_payload": 4, "max_payload": 4}, {"min_payload": 1, "max_payload": 1},
        {"vocab": 16},  # modadd rejects about 22% of pairs, so refill blocks are drawn
        {"vocab": 2**63},  # the largest: a + b of two draws comes within 2 of 2**64
    ], ids=["default", "min-eq-max", "max-1", "vocab-16", "vocab-2**63"])
    def test_matches_per_token_loop(self, task_id, fields):
        for seed in (0, 1, 7, 2**64 - 1):
            task = ToyTask(task_id, seed, **fields)
            for n in (1, 2, 7, 1024):
                assert gen_task(task, n) == gen_task_loop(task, n), (seed, n)

    @pytest.mark.parametrize("fields, n", [
        ({}, 2.5),
        ({"vocab": 64.5}, 2),
        ({"min_payload": 2.5}, 2),
        ({"max_payload": 4.5}, 2),
        ({"seed": 1.5}, 2),
        ({"vocab": 2**63 + 1}, 2),
        ({}, True),
        ({"seed": True}, 2),
        ({"min_payload": True}, 2),
    ], ids=["n", "vocab", "min_payload", "max_payload", "seed", "vocab-beyond-u64", "bool-n",
            "bool-seed", "bool-min_payload"])
    def test_bad_input_rejected(self, fields, n):
        with pytest.raises(InvalidInput):
            gen_task(ToyTask(**{"id": "copy", "seed": 1, **fields}), n)

    @pytest.mark.parametrize("task_id", ["copy", "modadd"])
    def test_numpy_integer_fields_give_the_same_items(self, task_id):
        # stored as Python ints: a numpy vocab would turn the uint64 draws to floats
        fields = {"seed": 3, "vocab": 40, "min_payload": 2, "max_payload": 5}
        task = ToyTask(task_id, **{k: np.int64(v) for k, v in fields.items()})
        assert all(type(getattr(task, k)) is int for k in fields)
        assert gen_task(task, np.int64(9)) == gen_task(ToyTask(task_id, **fields), 9)

    def test_bad_count(self):
        with pytest.raises(InvalidInput):
            gen_task(ToyTask("copy", seed=1), 0)

    def test_bad_task(self):
        with pytest.raises(InvalidInput):
            ToyTask("reverse", seed=1)
