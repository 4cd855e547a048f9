"""The layers the traced run times, and the per-layer metrics drawn from them.

``instrument`` wraps public functions (and the few private helpers that
``train`` and ``evaluate_ranking`` call between layers) from outside the
package. ``layer_metrics`` turns the spans into self times per layer. The
data layers (kg, algebra, oracle) count only under ``sample_dataset`` and are
divided by its calls: on gen_queries they come from the loop, elsewhere from
the traced set-up. Every other layer counts only inside the traced loop and
is divided by its operations: one pass on gen_queries and eval_rank, one
step on train_*. A layer a workload does not run reads 0.
``conjoin_timings`` times each t-norm on fixed-shape inputs.
"""

from __future__ import annotations

import gc
import time

import numpy as np

from skqe import algebra, autodiff, evaluation, logic, model, oracle, training
from skqe.model import ForwardContext, ModelConfig, ModelParams

from tracer import LABEL, NAME, Tracer

MB = 1024.0 * 1024.0
LOOP = "bench.loop"  # the span run.py opens around the traced measuring loop


def instrument(tracer: Tracer) -> None:
    t = tracer
    t.wrap(oracle, "sample_dataset", "oracle.sample_dataset")
    t.wrap(oracle, "build_index", "kg.build_index")
    t.wrap(algebra, "compile_instance", "algebra.compile_instance")
    t.wrap(oracle, "sample_queries", "oracle.sample_queries",
           label=lambda args, kwargs: args[1],
           after=lambda args, result, state: t.count("oracle.kept", len(result)))
    t.wrap(oracle, "eval_plan", "oracle.eval_plan",
           label=lambda args, kwargs: t.label_of_open("oracle.sample_queries"))
    t.counter(oracle, "_walk_instance", "oracle.walk_attempts")

    t.wrap(ForwardContext, "embed_instances", "model.embed")
    t.wrap(ForwardContext, "realize", "model.realize")
    t.wrap(ForwardContext, "skolem", "model.skolem")
    t.wrap(ForwardContext, "attention_weights", "model.attention")
    t.wrap(ForwardContext, "conjoin", "model.conjoin",
           before=lambda args: args[0].repair_count,
           after=lambda args, result, before: t.count(
               "model.repair_count", args[0].repair_count - before))

    def tape_size(args, result, state):
        output = args[0]
        nodes = output.tape.nodes[: output.index + 1]
        t.count("autodiff.tape_nodes", len(nodes))
        t.count("autodiff.tape_bytes", sum(
            n.value.nbytes + (0 if n.grad is None else n.grad.nbytes) for n in nodes))

    t.wrap(autodiff, "backward", "autodiff.backward", after=tape_size)
    t.wrap(training, "train", "training.train")
    t.wrap(training, "sample_negatives", "training.sample_negatives")
    t.wrap(training, "_group_forward", "training.group_forward")
    t.wrap(training, "_merge_row_grads", "training.merge_rows")
    t.wrap(training.Adam, "update_dense", "training.adam")
    t.wrap(training.Adam, "update_rows", "training.adam")

    def score_block(args, result, state):
        branch_values, entity_matrix = args
        rows = max(v.shape[0] for v in branch_values)
        t.record_max("evaluation.score_block_bytes",
                     rows * entity_matrix.shape[0] * entity_matrix.shape[1] * entity_matrix.itemsize)

    t.wrap(evaluation, "evaluate_ranking", "evaluation.evaluate_ranking")
    t.wrap(model, "realize_all_entities", "evaluation.realize_entities")
    t.wrap(evaluation, "_batch_scores", "evaluation.score", after=score_block)
    t.wrap(evaluation, "rank_answers", "evaluation.rank")


def layer_metrics(tracer: Tracer, ops: int) -> dict[str, float]:
    """Data layers per sampled dataset, every other layer per loop operation."""
    sampling = tracer.under("oracle.sample_dataset")
    in_loop = tracer.under(LOOP)
    _, data_own, data_calls = tracer.totals(sampling)
    _, eval_plan_own, _ = tracer.totals(
        sampling, key=lambda span: (span[NAME], span[LABEL]))
    _, loop_own, _ = tracer.totals(in_loop)
    eval_embed, _, _ = tracer.totals(tracer.under("evaluation.evaluate_ranking"))
    per_dataset = 1.0 / max(data_calls["oracle.sample_dataset"], 1)
    per_op = 1.0 / max(ops, 1)
    counts = tracer.counts

    def data_ms(name):
        return 1000.0 * data_own.get(name, 0.0) * per_dataset

    def loop_ms(name):
        return 1000.0 * loop_own.get(name, 0.0) * per_op

    attempts = counts["oracle.walk_attempts"]
    metrics = {
        "kg.build_index_ms": data_ms("kg.build_index"),
        "algebra.compile_instance_ms": data_ms("algebra.compile_instance"),
        "algebra.compile_instance_calls": data_calls["algebra.compile_instance"] * per_dataset,
        "oracle.eval_plan_calls": data_calls["oracle.eval_plan"] * per_dataset,
        "oracle.walk_attempts": attempts * per_dataset,
        "oracle.sampler_yield": counts["oracle.kept"] / attempts if attempts else 0.0,
        "model.embed_ms": loop_ms("model.embed"),
        "model.realize_ms": loop_ms("model.realize"),
        "model.skolem_ms": loop_ms("model.skolem"),
        "model.attention_ms": loop_ms("model.attention"),
        "model.conjoin_ms": loop_ms("model.conjoin"),
        "model.repair_count": counts["model.repair_count"] * per_op,
        "autodiff.backward_ms": loop_ms("autodiff.backward"),
        "autodiff.tape_nodes": counts["autodiff.tape_nodes"] * per_op,
        "autodiff.tape_mb": counts["autodiff.tape_bytes"] * per_op / MB,
        "training.sample_negatives_ms": loop_ms("training.sample_negatives"),
        "training.loss_ms": loop_ms("training.group_forward"),
        "training.merge_rows_ms": loop_ms("training.merge_rows"),
        "training.adam_ms": loop_ms("training.adam"),
        "training.step_self_ms": loop_ms("training.train"),
        "evaluation.realize_entities_ms": loop_ms("evaluation.realize_entities"),
        "evaluation.embed_ms": 1000.0 * eval_embed.get("model.embed", 0.0) * per_op,
        "evaluation.score_ms": loop_ms("evaluation.score"),
        "evaluation.rank_ms": loop_ms("evaluation.rank"),
        "evaluation.score_block_mb": tracer.maxima.get("evaluation.score_block_bytes", 0.0) / MB,
    }
    for structure in algebra.STRUCTURE_NAMES:
        metrics[f"oracle.eval_plan_ms.{structure}"] = (
            1000.0 * eval_plan_own.get(("oracle.eval_plan", structure), 0.0) * per_dataset)
    return metrics


class GcWatch:
    """Counts, through ``gc.callbacks``, the unreachable objects that the
    interpreter's own collections find during a ``with`` block, without
    forcing a collection."""

    def __init__(self):
        self.collected = 0

    def __call__(self, phase: str, info: dict) -> None:
        if phase == "stop":
            self.collected += info["collected"]

    def __enter__(self) -> "GcWatch":
        gc.callbacks.append(self)
        return self

    def __exit__(self, *exc) -> None:
        gc.callbacks.remove(self)


def _median_call_us(call, calls: int = 100, rounds: int = 7) -> float:
    call()
    samples = []
    for _ in range(rounds):
        began = time.perf_counter()
        for _ in range(calls):
            call()
        samples.append((time.perf_counter() - began) / calls)
    return 1e6 * float(np.median(samples))


def conjoin_timings(seed: int, d: int = 32, rows: int = 64) -> dict[str, float]:
    """Two-input weighted conjunction per t-norm, numpy and tape forward.

    numpy: ``logic.conjoin_bounds`` on two d-dimensional bounds with
    per-dimension weights. tape: ``ForwardContext.conjoin`` on two
    (rows, 2d) leaves, attention on, in a fresh training-mode context.
    """
    rng = np.random.default_rng([seed, 3])

    def bounds(shape):
        lower = rng.uniform(0.0, 1.0, shape)
        return lower, lower + rng.uniform(0.0, 1.0, shape) * (1.0 - lower)

    out = {}
    for kind in ("luk", "prod", "min"):
        inputs = [logic.TruthBounds.from_pairs(*bounds(d)) for _ in range(2)]
        weights = [rng.uniform(0.1, 1.0, d) for _ in range(2)]
        out[f"logic.conjoin_bounds_us.{kind}"] = _median_call_us(
            lambda: logic.conjoin_bounds(kind, inputs, weights))

        params = ModelParams.initialize(ModelConfig(1, 1, d=d, kind=kind), seed)
        xs = [np.concatenate(bounds((rows, d)), axis=1) for _ in range(2)]

        def tape_conjoin():
            ctx = ForwardContext(params, train=True)
            ctx.conjoin([ctx.tape.leaf(x) for x in xs])

        out[f"model.conjoin_tape_us.{kind}"] = _median_call_us(tape_conjoin)
    return out
