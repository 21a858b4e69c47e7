"""Synthetic token tasks for the toy transformer test bed.

Three structurally distinct problems induce distinct layer-relevance
profiles: copy (echo the payload), modadd (sum two operands mod vocab),
and sortseq (sort the payload ascending).

The tokenizer is the identity over integer ids. Ids 0..3 are reserved
(PAD, BOS, SEP, EOS); ids 4..6 mark the task at the start of every prompt
so one jointly trained model can serve all three tasks; payload tokens are
drawn from [7, vocab). modadd answers are taken mod vocab, with operand
pairs whose sum collides with a reserved id rejected at generation time.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InvalidInput
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
        if self.vocab <= PAYLOAD_MIN + 1:
            raise InvalidInput(f"vocab {self.vocab} leaves no payload token space")
        if not (1 <= self.min_payload <= self.max_payload):
            raise InvalidInput("payload length bounds must satisfy 1 <= min <= max")


def copy_answer(payload: list[int]) -> list[int]:
    return list(payload)


def modadd_answer(a: int, b: int, vocab: int) -> list[int]:
    return [(a + b) % vocab]


def sortseq_answer(payload: list[int]) -> list[int]:
    return sorted(payload)


def make_prompt(task_id: str, payload: list[int]) -> list[int]:
    return [BOS, TASK_MARKER[task_id], *payload, SEP]


def gen_task(task: ToyTask, n: int) -> list[tuple[list[int], list[int]]]:
    """n deterministic (prompt, answer) pairs for the task."""
    if n < 1:
        raise InvalidInput(f"need n >= 1, got {n}")
    rng = SeededRng(task.seed).derive(_GEN_TAG[task.id])
    span = task.vocab - PAYLOAD_MIN
    items = []
    for _ in range(n):
        if task.id == "modadd":
            while True:
                a = PAYLOAD_MIN + rng.randint(span)
                b = PAYLOAD_MIN + rng.randint(span)
                answer = modadd_answer(a, b, task.vocab)
                if answer[0] >= N_RESERVED:
                    break
            payload = [a, b]
        else:
            length = task.min_payload + rng.randint(task.max_payload - task.min_payload + 1)
            payload = [PAYLOAD_MIN + rng.randint(span) for _ in range(length)]
            answer = copy_answer(payload) if task.id == "copy" else sortseq_answer(payload)
        items.append((make_prompt(task.id, payload), answer))
    return items


def full_sequence(prompt: list[int], answer: list[int]) -> list[int]:
    """Teacher-forcing sequence: prompt tokens, answer tokens, EOS."""
    return [*prompt, *answer, EOS]
