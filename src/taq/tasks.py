"""Synthetic token tasks for the toy transformer test bed.

Three structurally distinct problems induce distinct layer-relevance
profiles: copy (echo the payload), modadd (sum two operands mod vocab),
and sortseq (sort the payload ascending).

The tokenizer is the identity over integer ids. Ids 0..3 are reserved
(PAD, BOS, SEP, EOS); ids 4..6 mark the task at the start of every prompt
so one jointly trained model can serve all three tasks; payload tokens are
drawn from [7, vocab). modadd answers are taken mod vocab, with operand
pairs whose sum collides with a reserved id rejected at generation time.
``gen_task`` is the one place that writes the prompt layout (BOS, task
marker, payload, SEP) and the three answer rules.

``gen_task`` draws its u64 values in blocks (``SeededRng.next_u64s``) and
walks them once per item; the items are the ones one ``next_u64() % bound``
per token, in stream order, gives.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InvalidInput, require_instance, require_int
from .linalg import SeededRng

PAD, BOS, SEP, EOS = 0, 1, 2, 3
TASK_IDS = ("copy", "modadd", "sortseq")
TASK_MARKER = {"copy": 4, "modadd": 5, "sortseq": 6}
PAYLOAD_MIN = 7
N_RESERVED = 4

_GEN_TAG = {"copy": 101, "modadd": 102, "sortseq": 103}


@dataclass(frozen=True)
class ToyTask:
    """Deterministic generator settings for one synthetic task."""

    id: str
    seed: int
    vocab: int = 64
    min_payload: int = 3
    max_payload: int = 8

    def __post_init__(self):
        if self.id not in TASK_IDS:
            raise InvalidInput(f"unknown task {self.id!r}, expected one of {TASK_IDS}")
        # stored as Python ints: a numpy int64 vocab would turn gen_task's uint64 draws to floats
        for name in ("seed", "vocab", "min_payload", "max_payload"):
            object.__setattr__(self, name, require_int(name, getattr(self, name)))
        if not PAYLOAD_MIN + 1 < self.vocab <= 2**63:  # so a + b of two u64 draws cannot wrap
            raise InvalidInput(f"vocab {self.vocab} must lie in ({PAYLOAD_MIN + 1}, 2**63]")
        if not (1 <= self.min_payload <= self.max_payload):
            raise InvalidInput("payload length bounds must satisfy 1 <= min <= max")


def gen_task(task: ToyTask, n: int) -> list[tuple[list[int], list[int]]]:
    """n deterministic (prompt, answer) pairs for the task.

    Stream order: per copy/sortseq item a length draw, then one draw per
    payload token; per modadd attempt an (a, b) pair, repeated until the sum
    clears the reserved ids.
    """
    n = require_int("n", n, 1)
    rng = SeededRng(require_instance("task", task, ToyTask).seed).derive(_GEN_TAG[task.id])
    span = task.vocab - PAYLOAD_MIN
    marker = TASK_MARKER[task.id]
    items = []
    if task.id == "modadd":
        while len(items) < n:  # one attempt per missing item, until n are accepted
            a, b = (PAYLOAD_MIN + rng.next_u64s(2 * (n - len(items))) % span).reshape(-1, 2).T
            ok = (a + b) % task.vocab >= N_RESERVED
            items += [([BOS, marker, x, y, SEP], [(x + y) % task.vocab])
                      for x, y in zip(a[ok].tolist(), b[ok].tolist())]
        return items
    # an item takes at most 1 + max_payload draws; the unread tail is dropped
    z = rng.next_u64s(n * (1 + task.max_payload))
    lengths = (task.min_payload + z % (task.max_payload - task.min_payload + 1)).tolist()
    tokens = (PAYLOAD_MIN + z % span).tolist()
    sort = task.id == "sortseq"
    pos = 0
    for _ in range(n):
        payload = tokens[pos + 1: pos + 1 + lengths[pos]]
        pos += 1 + lengths[pos]
        items.append(([BOS, marker, *payload, SEP], sorted(payload) if sort else payload))
    return items
