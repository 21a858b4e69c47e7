"""Benchmark of the taq pipeline, driven from outside through its public calls.

    python3 bench/run.py --workload {profile,eval,train} --seed N --seconds S --trace {0,1}

Workloads (all on the default ModelConfig: 8 layers, d=64):

- ``profile``: the paper's method end to end. For each of copy/modadd/sortseq,
  capture calibration prompts into 8 reservoirs plus moments, compute the
  spectral entropies and relevance, allocate a rank plan, quantize that plan
  and evaluate it on held-out items. The spectrum (pure-Python Jacobi) does
  most of the work.
- ``eval``: quantize and evaluate the uniform ladder fp32/u16/u8/u4 on each
  task, with no profiling. Greedy decode does most of the work; ``stats`` and
  ``linalg`` are bypassed.
- ``train``: ``train_toy`` from ``init_model`` for a fixed step count:
  teacher-forced forward plus analytic backward.

BENCHMARK.json lists ``profile`` and ``train`` only. Host timing noise needs
about a minute of rounds per run to hold still, and three workloads at that
length do not fit the time the benchmark may take; ``profile`` also covers
decode and quantization. ``eval`` runs the same way by hand.

``profile`` and ``eval`` load the committed checkpoint (bench/weights, made by
bench/make_weights.py) and check its sha256 in set-up. The seed makes every
input: calibration prompts, held-out items (any item whose prompt is in the
checkpoint's training data is dropped), training items and sampling streams.

A run repeats one round of the workload on identical inputs until
``--seconds`` would be exceeded, and sets up ``setup_reps`` times before each
round; times are medians over rounds and over set-ups. Held-out items are
scored by ``evaluate`` calls on fixed batches of 16 items, with its default
decode budget. Each round's outputs are checked, and must equal the first round's.
After the rounds, untimed, every layer of the checkpoint is quantized at u4
and u8 for the per-layer quantization errors. With ``--trace 1`` the rounds
alternate untraced and traced; per-layer figures come from the traced
rounds, and the traced-minus-untraced round time is the tracing overhead.

Output: context and metric lines, then as the last line one JSON object
``{"correct", "attempted", "failed", "metrics"}`` holding the end-to-end
metrics (``--trace 0``) or the per-layer metrics (``--trace 1``) named in
BENCHMARK.json. ``attempted`` counts public calls (a loop of ``offer``
calls over one batch counts once) plus output checks. A report with the run
context, per-task per-layer tables, degeneracy flags and every metric is
written to bench/out/, and with ``--trace 1`` the spans as well. The exit
code is 1 when a check failed or a call raised, so no such run passes as a
result.
"""

from __future__ import annotations

import common  # first: pins BLAS threads and puts src/ on the path

import argparse
import io
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
from dataclasses import dataclass, field

import numpy as np

from recorder import Recorder, totals_by_name
from taq.alloc import (PIN_FULL_BITS, AllocConfig, CostModel, allocate_rank, check_monotone,
                       uniform_plan)
from taq.errors import TaqError
from taq.linalg import SeededRng, Tensor
from taq.model import (ModelConfig, ToyModel, evaluate, forward, init_model, layer_weight_counts,
                       param_shapes, quantizable_names, train_toy)
from taq.quant import DEFAULT_GROUP_SIZE, quant_error
from taq.stats import (DEFAULT_ALPHA, DEFAULT_BETA, DEFAULT_RESERVOIR_CAPACITY, Reservoir,
                       StreamingMoments, finalize_profile, spectral_entropy, variance_and_stability)
from taq.tasks import PAD, TASK_IDS, ToyTask, gen_task

WORKLOADS = ("profile", "eval", "train")
SIZES = {
    "full": {"calib_prompts": 512, "capture_batch": 64, "eval_items": 128, "eval_batch": 16,
             "train_steps": 100, "setup_reps": 5},
    # For the smoke test: every code path, a few seconds per workload.
    "toy": {"calib_prompts": 4, "capture_batch": 4, "eval_items": 4, "eval_batch": 2,
            "train_steps": 3, "setup_reps": 2},
}
LADDER = (("fp32", None), ("u16", 16), ("u8", 8), ("u4", 4))
PROBE_BITS = (4, 8)

# Tags for SeededRng(seed).derive: one independent stream per input.
_CALIB_TAG, _HELDOUT_TAG, _TRAIN_TAG, _RESERVOIR_TAG = 1, 2, 3, 4


def _per_layer_spec(n_layers: int) -> list[tuple[str, str]]:
    spec = [
        ("stats.spectral_entropy.calls", "count"),
        ("stats.spectral_entropy.s", "s"),
        ("stats.spectral_entropy.dim", "count"),
        ("model.forward.capture.calls", "count"),
        ("model.forward.capture.tokens", "count"),
        ("model.forward.capture.self_s", "s"),
        ("stats.Reservoir.offer.calls", "count"),
        ("stats.Reservoir.offer.s", "s"),
        ("stats.StreamingMoments.update.calls", "count"),
        ("stats.StreamingMoments.update.elements", "count"),
        ("stats.StreamingMoments.update.s", "s"),
        ("stats.variance_and_stability.s", "s"),
        ("stats.finalize_profile.s", "s"),
        ("alloc.allocate_rank.s", "s"),
        ("model.with_quantized_layers.calls", "count"),
        ("model.with_quantized_layers.s", "s"),
        ("quant.weights_quantized", "count"),
        ("quant.groups", "count"),
        ("quant.quant_error.s", "s"),
    ]
    spec += [(f"quant.frobenius_rel.u{b}.layer{i}", "ratio")
             for b in PROBE_BITS for i in range(n_layers)]
    spec += [
        ("model.evaluate.calls", "count"),
        ("model.evaluate.items", "count"),
        ("model.evaluate.s", "s"),
        ("model.evaluate.s_per_item", "s"),
    ]
    spec += [(f"model.evaluate.{q}.taq.{tid}", "%") for q in ("em", "f1") for tid in TASK_IDS]
    spec += [
        ("model.train_toy.steps", "count"),
        ("model.train_toy.s", "s"),
        ("model.train_toy.s_per_step", "s"),
        ("model.init_model.s", "s"),
        ("tasks.gen_task.s", "s"),
        ("bench.load_weights.s", "s"),
        ("trace.uncovered_s", "s"),
        ("trace.uncovered_frac", "ratio"),
        ("trace.overhead_s", "s"),
    ]
    return spec


PER_LAYER = _per_layer_spec(ModelConfig().n_layers)
SETUP_SPANS = ("tasks.gen_task", "bench.load_weights")
END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("peak_rss_mb", "MB"), ("success_frac", "ratio"))


class BenchInputError(Exception):
    """The benchmark's own inputs are missing or corrupt."""


@dataclass
class Inputs:
    seed: int
    cfg: ModelConfig
    model: ToyModel | None = None
    calib: dict[str, list[list[int]]] = field(default_factory=dict)
    heldout: dict[str, list[tuple[list[int], list[int]]]] = field(default_factory=dict)
    train_items: list[tuple[list[int], list[int]]] = field(default_factory=list)


def task_seed(seed: int, tag: int) -> int:
    return SeededRng(seed).derive(tag).next_u64()


def gen(rec: Recorder, tid: str, seed: int, n: int):
    with rec.call("tasks.gen_task", items=n):
        return gen_task(ToyTask(tid, seed=seed), n)


def load_checkpoint(rec: Recorder, cfg: ModelConfig) -> ToyModel:
    with rec.span("bench.load_weights"):
        meta = json.loads(common.WEIGHTS_META.read_text())
        with np.load(io.BytesIO(common.WEIGHTS.read_bytes())) as npz:
            params = {name: npz[name] for name, _ in param_shapes(cfg)}
        for name, shape in param_shapes(cfg):
            if params[name].shape != shape:
                raise BenchInputError(f"{name} has shape {params[name].shape}, expected {shape}")
        digest = common.weights_digest(cfg, params)
        if digest != meta["sha256"]:
            raise BenchInputError(f"checkpoint sha256 {digest} != recorded {meta['sha256']}")
    return ToyModel(cfg, params)


def setup(workload: str, seed: int, size: dict, rec: Recorder) -> Inputs:
    inp = Inputs(seed=seed, cfg=ModelConfig())
    if workload == "train":
        per_task = common.TRAIN_ITEMS_PER_TASK
        for tid in TASK_IDS:
            inp.train_items += gen(rec, tid, task_seed(seed, _TRAIN_TAG), per_task)
        return inp
    inp.model = load_checkpoint(rec, inp.cfg)
    with rec.call("tasks.gen_task", calls=len(TASK_IDS)):
        seen = {tuple(p) for p, _ in common.training_items()}
    n = size["eval_items"]
    for tid in TASK_IDS:
        fresh = [it for it in gen(rec, tid, task_seed(seed, _HELDOUT_TAG), 2 * n)
                 if tuple(it[0]) not in seen]
        if len(fresh) < n:
            raise BenchInputError(f"only {len(fresh)} held-out {tid} items, need {n}")
        inp.heldout[tid] = fresh[:n]
        if workload == "profile":
            inp.calib[tid] = [p for p, _ in gen(rec, tid, task_seed(seed, _CALIB_TAG),
                                                size["calib_prompts"])]
    return inp


# ---------------------------------------------------------------- rounds

def pad(prompts: list[list[int]]) -> tuple[np.ndarray, np.ndarray]:
    """Right-padded token batch and the mask of real (non-pad) positions.
    Causal attention keeps real positions independent of the padding."""
    t = max(len(p) for p in prompts)
    tokens = np.full((len(prompts), t), PAD, dtype=np.int64)
    mask = np.zeros((len(prompts), t), dtype=bool)
    for i, p in enumerate(prompts):
        tokens[i, :len(p)] = p
        mask[i, :len(p)] = True
    return tokens, mask


def capture_task(model: ToyModel, prompts, batch: int, reservoirs, moments, rec: Recorder) -> None:
    for start in range(0, len(prompts), batch):
        tokens, mask = pad(prompts[start:start + batch])

        def capture(layer: int, x: np.ndarray) -> None:
            rows = x[mask]
            with rec.span("model.forward.capture.callback", offers=len(rows), elements=rows.size):
                with rec.call("stats.Reservoir.offer", calls=len(rows)):
                    offer = reservoirs[layer].offer
                    for row in rows:
                        offer(row)
                with rec.call("stats.StreamingMoments.update", elements=rows.size):
                    moments[layer].update(rows)

        with rec.call("model.forward.capture", tokens=int(mask.sum())):
            forward(model, tokens, capture=capture)


def quantize(model: ToyModel, layer_bits: dict[int, int],
             rec: Recorder) -> tuple[ToyModel, dict[int, float]]:
    """Quantized copy of ``model`` and each quantized layer's mean relative
    Frobenius error at its bitwidth; checks every tensor's error."""
    names = [n for layer in layer_bits for n in quantizable_names(model.config, layer)]
    weights = sum(model.params[n].size for n in names)
    groups = sum(math.ceil(model.params[n].size / DEFAULT_GROUP_SIZE) for n in names)
    with rec.call("model.with_quantized_layers", weights=weights, groups=groups):
        qm = model.with_quantized_layers(layer_bits, DEFAULT_GROUP_SIZE)
    frob = {}
    for layer, bits in layer_bits.items():
        errs = []
        for name in quantizable_names(model.config, layer):
            with rec.call("quant.quant_error"):
                err = quant_error(Tensor(model.params[name], label=name), qm.qtensors[name])
            rec.check(math.isfinite(err["frobenius_rel"]) and 0.0 <= err["frobenius_rel"] < 1.0,
                      f"{name} u{bits} frobenius_rel {err['frobenius_rel']} outside [0, 1)")
            errs.append(err["frobenius_rel"])
        frob[layer] = float(np.mean(errs))
    return qm, frob


def quant_error_probe(model: ToyModel, rec: Recorder) -> dict[str, float]:
    """Every layer's error at each of PROBE_BITS, keyed ``u<bits>.layer<i>``:
    the per-layer quantization-error figures, the same on every workload.
    The min-max quantizer is deterministic, so a layer's error at given bits
    does not depend on which plan quantized it."""
    n = model.config.n_layers
    frob = {}
    for bits in PROBE_BITS:
        _, errs = quantize(model, dict.fromkeys(range(n), bits), rec)
        frob.update({f"u{bits}.layer{layer}": e for layer, e in errs.items()})
    for layer in range(n):
        u4, u8 = frob[f"u4.layer{layer}"], frob[f"u8.layer{layer}"]
        rec.check(u4 > u8, f"layer {layer}: frobenius_rel u4 {u4} not above u8 {u8}")
    return frob


def score(model: ToyModel, items, batch: int, rec: Recorder, label: str) -> dict:
    """EM and F1 over ``items``: one ``evaluate`` call, with its default
    decode budget, per batch of ``batch`` items. A batch decodes until its
    last answer ends, so a fixed batch size keeps one answer that runs to the
    budget from setting the decode length of every item, which would make
    the decode time depend on the seed. EM and F1 are the item means, as one
    call over all items gives them."""
    hits, f1_sum, degenerate = 0, 0.0, 0
    for start in range(0, len(items), batch):
        chunk = items[start:start + batch]
        with rec.call("model.evaluate", items=len(chunk)):
            res = evaluate(model, chunk)
        rec.check(res.n_items == len(chunk), f"{label}: n_items {res.n_items} != {len(chunk)}")
        rec.check(0.0 <= res.exact_match <= 100.0 and 0.0 <= res.token_f1 <= 100.0,
                  f"{label}: EM {res.exact_match} / F1 {res.token_f1} outside [0, 100]")
        hits += round(res.exact_match * res.n_items / 100.0)
        f1_sum += res.token_f1 * res.n_items
        degenerate += res.degenerate_pairs
    n = len(items)
    return {"em": 100.0 * hits / n, "f1": f1_sum / n, "degenerate_pairs": degenerate}


def profile_round(inp: Inputs, size: dict, rec: Recorder) -> dict:
    model, cfg = inp.model, inp.cfg
    cost_model = CostModel(layer_weight_counts(cfg))
    fp32_bits = PIN_FULL_BITS * sum(cost_model.weight_counts)
    t0 = time.perf_counter()
    tables, plans = {}, {}
    for k, tid in enumerate(TASK_IDS):
        rng = SeededRng(inp.seed).derive(_RESERVOIR_TAG).derive(k)
        reservoirs = [Reservoir(DEFAULT_RESERVOIR_CAPACITY, cfg.d_model, rng.derive(i))
                      for i in range(cfg.n_layers)]
        moments = [StreamingMoments() for _ in range(cfg.n_layers)]
        capture_task(model, inp.calib[tid], size["capture_batch"], reservoirs, moments, rec)
        entropies, flags, variances = [], [], []
        for layer in range(cfg.n_layers):
            dim = min(len(reservoirs[layer]), cfg.d_model)
            with rec.call("stats.spectral_entropy", dim=dim):
                h, degenerate = spectral_entropy(reservoirs[layer])
            rec.check(math.isfinite(h) and 0.0 <= h <= math.log(dim) + 1e-9,
                      f"{tid} layer {layer}: entropy {h} outside [0, ln {dim}]")
            with rec.call("stats.variance_and_stability"):
                var, _ = variance_and_stability(moments[layer])
            rec.check(math.isfinite(var) and var >= 0.0, f"{tid} layer {layer}: variance {var}")
            entropies.append(h)
            flags.append(degenerate)
            variances.append(var)
        with rec.call("stats.finalize_profile"):
            layer_stats, zflags = finalize_profile(entropies, flags, variances,
                                                   DEFAULT_ALPHA, DEFAULT_BETA)
        rel = [s.relevance for s in layer_stats]
        with rec.call("alloc.allocate_rank"):
            plan = allocate_rank(rel, AllocConfig(), cost_model)
        check_plan(plan, rel, cost_model, rec, tid)
        plans[tid] = plan
        tables[tid] = {"layers": [dict(vars(s), bits=plan.bits[s.layer]) for s in layer_stats],
                       **zflags, "cost": plan.cost, "cost_frac": plan.cost / fp32_bits}
    plan_s = time.perf_counter() - t0
    quality = {}
    for tid in TASK_IDS:
        layer_bits = {i: b for i, b in enumerate(plans[tid].bits) if b != PIN_FULL_BITS}
        qm, frob = quantize(model, layer_bits, rec)
        for layer, err in frob.items():
            tables[tid]["layers"][layer]["frobenius_rel"] = err
        quality[f"taq.{tid}"] = score(qm, inp.heldout[tid], size["eval_batch"], rec, f"taq {tid}")
        tables[tid]["degenerate_pairs"] = quality[f"taq.{tid}"]["degenerate_pairs"]
    return {"plan_s": plan_s, "tables": tables, "quality": quality}


def check_plan(plan, rel, cost_model: CostModel, rec: Recorder, tid: str) -> None:
    n = plan.n_layers
    edge = AllocConfig().edge_pin
    edges = set(range(edge)) | set(range(n - edge, n))
    with rec.call("alloc.check_monotone"):
        monotone = check_monotone(plan, rel)
    rec.check(monotone, f"{tid}: plan {plan.bits} not monotone in relevance")
    rec.check(set(plan.pinned) == edges and all(plan.bits[i] == PIN_FULL_BITS for i in edges),
              f"{tid}: edge layers {sorted(edges)} not pinned at {PIN_FULL_BITS} in {plan.bits}")
    with rec.call("alloc.CostModel.cost"):
        cost = cost_model.cost(plan.bits)
    rec.check(plan.cost == cost, f"{tid}: plan cost {plan.cost} != CostModel.cost {cost}")


def eval_round(inp: Inputs, size: dict, rec: Recorder) -> dict:
    model, cfg = inp.model, inp.cfg
    cost_model = CostModel(layer_weight_counts(cfg))
    frob: dict[str, float] = {}
    quality = {}
    for name, bits in LADDER:
        qm = model
        if bits is not None:
            with rec.call("alloc.uniform_plan"):
                plan = uniform_plan(cfg.n_layers, bits, cost_model)
            qm, errs = quantize(model, dict(enumerate(plan.bits)), rec)
            frob.update({f"u{bits}.layer{layer}": e for layer, e in errs.items()})
        for tid in TASK_IDS:
            quality[f"{name}.{tid}"] = score(qm, inp.heldout[tid], size["eval_batch"], rec,
                                             f"{name} {tid}")
    for layer in range(cfg.n_layers):
        u8, u16 = frob[f"u8.layer{layer}"], frob[f"u16.layer{layer}"]
        rec.check(u8 > u16, f"layer {layer}: frobenius_rel u8 {u8} not above u16 {u16}")
    return {"frob": frob, "quality": quality}


def train_round(inp: Inputs, size: dict, rec: Recorder) -> dict:
    steps = size["train_steps"]
    with rec.call("model.init_model"):
        model = init_model(inp.cfg)
    with rec.call("model.train_toy", steps=steps):
        summary = train_toy(model, inp.train_items, steps=steps, seed=inp.seed)
    first, last = summary["initial_loss"], summary["final_loss"]
    rec.check(math.isfinite(first) and math.isfinite(last) and last < first,
              f"train loss not finite and falling: initial {first}, final {last}")
    return {"initial_loss": first, "final_loss": last}


ROUNDS = {"profile": profile_round, "eval": eval_round, "train": train_round}


# ------------------------------------------------------------- measuring

def measure(workload: str, set_up, size: dict, seconds: float, trace: bool,
            rec: Recorder) -> tuple[list[dict], str | None]:
    """Rounds until the next would pass ``seconds``. Before each round,
    ``set_up()`` runs ``size["setup_reps"]`` times, so that set-up is timed
    all through the run and not only at its start; every round runs on the
    first set-up's inputs. Returns one record per round (wall time, traced or not, outputs)
    and the error that stopped the run, if any. With ``trace`` the rounds
    alternate untraced and traced, and there are at least two."""
    rounds: list[dict] = []
    laps: list[float] = []
    start = time.perf_counter()
    while True:
        lap_start = time.perf_counter()
        for _ in range(size["setup_reps"]):
            inp = set_up()
        k = len(rounds)
        rec.tracing = trace and k % 2 == 1
        rec.run_id = f"round{k}"
        t0 = time.perf_counter()
        error = None
        try:
            with rec.span("bench.round"):
                out = ROUNDS[workload](inp, size, rec)
        except TaqError as exc:
            out, error = None, f"{type(exc).__name__}: {exc}"
        rounds.append({"run": rec.run_id, "traced": rec.tracing,
                       "wall_s": time.perf_counter() - t0, "out": out})
        rec.tracing = False
        if error is not None:
            return rounds, error
        if k > 0:
            rec.check(_outputs(out) == _outputs(rounds[0]["out"]),
                      f"round {k} outputs differ from round 0 on identical inputs")
        laps.append(time.perf_counter() - lap_start)
        if (time.perf_counter() - start + statistics.median(laps) > seconds
                and (not trace or len(rounds) >= 2)):
            return rounds, None


def _outputs(out: dict) -> dict:
    return {k: v for k, v in out.items() if k != "plan_s"}


def median_of(rounds: list[dict], key) -> float:
    return statistics.median(key(r) for r in rounds)


def workload_metrics(workload: str, rounds: list[dict], size: dict) -> dict[str, tuple[float, str]]:
    """The workload's own headline figures, from untraced rounds; quality
    figures are means over the three tasks."""
    done = [r for r in rounds if r["out"] is not None and not r["traced"]]
    if not done:
        return {}
    wall = median_of(done, lambda r: r["wall_s"])
    out = done[0]["out"]

    def mean_q(plan: str, q: str) -> float:
        return statistics.fmean(out["quality"][f"{plan}.{tid}"][q] for tid in TASK_IDS)

    if workload == "profile":
        return {
            "plan_s": (median_of(done, lambda r: r["out"]["plan_s"]), "s"),
            "em_taq": (mean_q("taq", "em"), "%"),
            "f1_taq": (mean_q("taq", "f1"), "%"),
            "cost_frac_taq": (statistics.fmean(t["cost_frac"] for t in out["tables"].values()),
                              "ratio"),
        }
    if workload == "eval":
        items = len(LADDER) * len(TASK_IDS) * size["eval_items"]
        return {
            "items_per_s": (items / wall, "1/s"),
            "em_fp": (mean_q("fp32", "em"), "%"),
            "em_u8": (mean_q("u8", "em"), "%"),
            "em_u4": (mean_q("u4", "em"), "%"),
            "f1_u4": (mean_q("u4", "f1"), "%"),
        }
    return {
        "steps_per_s": (size["train_steps"] / wall, "1/s"),
        "final_loss": (out["final_loss"], "nats"),
    }


def per_layer_metrics(rounds: list[dict], spans: list[dict], setup_runs: list[str],
                      frob: dict[str, float]) -> dict[str, float]:
    """Per-round totals from the traced rounds' spans, median over rounds;
    set-up figures are the median over set-up repetitions; quantization
    errors are ``frob`` from ``quant_error_probe``."""
    traced = [r for r in rounds if r["traced"] and r["out"] is not None]
    plain = [r for r in rounds if not r["traced"] and r["out"] is not None]
    per_round = []
    for r in traced:
        tot = totals_by_name(spans, r["run"])
        ev, tr = tot["model.evaluate"], tot["model.train_toy"]
        wq = tot["model.with_quantized_layers"]
        values = {
            "stats.spectral_entropy.dim": (tot["stats.spectral_entropy"]["dim"]
                                           / max(tot["stats.spectral_entropy"]["n"], 1)),
            "quant.weights_quantized": wq["weights"],
            "quant.groups": wq["groups"],
            "model.evaluate.s_per_item": ev["s"] / ev["items"] if ev["items"] else 0.0,
            "model.train_toy.s_per_step": tr["s"] / tr["steps"] if tr["steps"] else 0.0,
            "trace.uncovered_s": tot["bench.round"]["self_s"],
            "trace.uncovered_frac": tot["bench.round"]["self_s"] / r["wall_s"],
        }
        for name, _ in PER_LAYER:
            span, fld = name.rsplit(".", 1)
            if (name in values or span in SETUP_SPANS or span == "trace"
                    or name.startswith("quant.frobenius_rel.")):
                continue
            if name.startswith("model.evaluate.") and name.count(".") == 4:
                _, _, q, plan, tid = name.split(".")
                values[name] = r["out"].get("quality", {}).get(f"{plan}.{tid}", {}).get(q, 0.0)
            else:
                values[name] = tot[span][fld]
        per_round.append(values)
    metrics = {name: statistics.median(v[name] for v in per_round)
               for name in per_round[0]} if per_round else {}
    for span in SETUP_SPANS:
        metrics[f"{span}.s"] = statistics.median(totals_by_name(spans, run)[span]["s"]
                                                 for run in setup_runs)
    overhead = (median_of(traced, lambda r: r["wall_s"]) - median_of(plain, lambda r: r["wall_s"])
                if traced and plain else 0.0)
    metrics["trace.overhead_s"] = overhead
    metrics.update({f"quant.frobenius_rel.{key}": err for key, err in frob.items()})
    return {name: metrics.get(name, 0.0) for name, _ in PER_LAYER}


# ---------------------------------------------------------------- context

def git_commit() -> str | None:
    git = common.ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def blas_info() -> dict:
    """The BLAS numpy was built with, the pinned thread count, and the count
    the loaded OpenBLAS reports (None when it cannot be asked)."""
    import ctypes

    deps = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    reported = None
    try:
        with open("/proc/self/maps") as f:
            libs = sorted({ln.split()[-1] for ln in f if "openblas" in ln.lower() and ".so" in ln})
        for path in libs:
            lib = ctypes.CDLL(path)
            for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                        "openblas_get_num_threads"):
                fn = getattr(lib, sym, None)
                if fn is not None:
                    fn.restype = ctypes.c_int
                    reported = fn()
                    break
    except OSError:
        pass
    return {"name": deps.get("name"), "version": deps.get("version"),
            "threads_pinned": common.BLAS_THREADS, "threads_reported": reported}


def run_context(args, size: dict) -> dict:
    meta = json.loads(common.WEIGHTS_META.read_text())
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "size": args.size, "sizes": size,
        "model_config": vars(ModelConfig()),
        "group_size": DEFAULT_GROUP_SIZE, "reservoir_capacity": DEFAULT_RESERVOIR_CAPACITY,
        "alloc": vars(AllocConfig()), "alpha": DEFAULT_ALPHA, "beta": DEFAULT_BETA,
        "task_seeds": {"calib": task_seed(args.seed, _CALIB_TAG),
                       "heldout": task_seed(args.seed, _HELDOUT_TAG),
                       "train": task_seed(args.seed, _TRAIN_TAG),
                       "checkpoint_train_data": common.TRAIN_DATA_SEED},
        "checkpoint": {k: meta[k] for k in ("sha256", "steps", "train_seed", "final_loss")},
        "git_commit": git_commit(),
        "host": {"cpu": cpu_model(), "machine": platform.machine(), "nproc": os.cpu_count(),
                 "affinity": len(os.sched_getaffinity(0))},
        "python": platform.python_version(), "numpy": np.__version__, "blas": blas_info(),
    }


# ------------------------------------------------------------------- main

def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    ap.add_argument("--size", default="full", choices=tuple(SIZES))
    ap.add_argument("--out", default=str(common.BENCH / "out"), help="report directory")
    args = ap.parse_args(argv)
    size = SIZES[args.size]
    trace = bool(args.trace)
    rec = Recorder()

    setup_s: list[float] = []
    setup_runs: list[str] = []
    first: list[Inputs] = []

    def set_up() -> Inputs:
        k = len(setup_s)
        rec.tracing, rec.run_id = trace, f"setup{k}"
        t0 = time.perf_counter()
        fresh = setup(args.workload, args.seed, size, rec)
        setup_s.append(time.perf_counter() - t0)
        setup_runs.append(rec.run_id)
        rec.tracing = False
        if not first:
            first.append(fresh)
        else:
            rec.check((fresh.calib, fresh.heldout, fresh.train_items)
                      == (first[0].calib, first[0].heldout, first[0].train_items),
                      f"set-up {k} made different inputs from set-up 0")
        return first[0]

    try:
        rounds, error = measure(args.workload, set_up, size, args.seconds, trace, rec)
    except (BenchInputError, TaqError, OSError, KeyError) as exc:
        print(f"error: set-up failed: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    done = [r["out"] for r in rounds if r["out"] is not None]
    frob = {}
    if done:
        model = first[0].model or load_checkpoint(rec, first[0].cfg)
        frob = quant_error_probe(model, rec)
        for tid, table in done[0].get("tables", {}).items():
            for row in table["layers"]:
                key = f"u{row['bits']}.layer{row['layer']}"
                if key in frob:
                    rec.check(row["frobenius_rel"] == frob[key],
                              f"{tid} plan's {key} error {row['frobenius_rel']} != {frob[key]}")

    context = run_context(args, size)
    results = {"context": context, "setup_s": setup_s,
               "rounds": [{k: v for k, v in r.items() if k != "out"} for r in rounds],
               "outputs": _outputs(done[0]) if done else None, "quant_error_probe": frob,
               "error": error, "errors": rec.errors}
    print("context " + json.dumps(context))
    if args.workload == "profile" and rounds[0]["out"] is not None:
        for tid, table in rounds[0]["out"]["tables"].items():
            print(f"table {tid} " + json.dumps(table))

    if trace:
        metrics = per_layer_metrics(rounds, rec.spans, setup_runs, frob)
        units = dict(PER_LAYER)
    else:
        plain = [r for r in rounds if not r["traced"]]
        metrics = {
            "setup_s": statistics.median(setup_s),
            "wall_s": median_of(plain, lambda r: r["wall_s"]),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "success_frac": 1.0 - rec.failed / rec.attempted,
        }
        units = dict(END_TO_END)
        extra = workload_metrics(args.workload, rounds, size)
        for name, (value, unit) in extra.items():
            print(f"metric {name} {value!r} {unit}")
        results["workload_metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in extra.items()}
        print(f"metric fail_frac {rec.call_errors / rec.calls!r} ratio")
    for name, value in metrics.items():
        print(f"metric {name} {value!r} {units[name]}")
    if error is not None:
        print(f"error: run stopped: {error}", file=sys.stderr)
    for msg in rec.errors:
        print(msg, file=sys.stderr)

    result = {"correct": rec.failed == 0 and error is None,
              "attempted": rec.attempted, "failed": rec.failed,
              "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}
    results["result"] = result
    out_dir = os.path.abspath(args.out)
    os.makedirs(out_dir, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(os.path.join(out_dir, f"report-{stem}.json"), "w") as f:
        json.dump(results, f, indent=1, default=float)
    if trace:
        with open(os.path.join(out_dir, f"spans-{stem}.json"), "w") as f:
            json.dump(rec.spans, f)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
