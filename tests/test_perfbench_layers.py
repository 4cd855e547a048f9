"""The traced benchmark wraps skqe names from outside the package; a rename
there must fail here rather than in ``perfbench/run.py --trace 1``."""

import importlib
from pathlib import Path

from skqe import algebra, autodiff, evaluation, model, oracle, training
from skqe.model import ForwardContext, ModelParams

from conftest import reference_sample_dataset

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
OWNERS = (oracle, algebra, autodiff, training, training.Adam, evaluation, model, ForwardContext)


def _perfbench(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return importlib.import_module("layers"), importlib.import_module("tracer")


def test_instrument_wraps_current_names_and_stop_restores_them(monkeypatch):
    layers, tracer_mod = _perfbench(monkeypatch)
    before = [dict(vars(owner)) for owner in OWNERS]
    tracer = tracer_mod.Tracer()
    try:
        layers.instrument(tracer)  # AttributeError on a name that no longer exists
        patches = list(tracer._patches)
        assert patches
        for owner, attr, original in patches:
            assert any(owner is o for o in OWNERS), (owner, attr)
            assert getattr(owner, attr) is not original, attr
    finally:
        tracer.stop()
    for owner, saved in zip(OWNERS, before):
        now = vars(owner)
        assert now.keys() == saved.keys(), owner
        assert all(now[name] is value for name, value in saved.items()), owner


def test_traced_sampling_counts_every_walk_and_labels_every_eval_plan(monkeypatch, small_graph):
    """The sampler's per-layer metrics see every attempt, as the untraced
    reference sampler counts them, and every plan evaluation, each labelled
    with its structure, as an untraced run counts them."""
    layers, tracer_mod = _perfbench(monkeypatch)
    structures = ("2p", "pi", "2in", "inp", "up")
    want, attempts, reference_evals = reference_sample_dataset(small_graph, structures, 6, 4,
                                                               "generalization")
    plans = {algebra.structure_plan(s): s for s in structures}
    evals = dict.fromkeys(structures, 0)
    eval_plan = oracle.eval_plan

    def counted(plan, *args):
        evals[plans[plan]] += 1
        return eval_plan(plan, *args)

    monkeypatch.setattr(oracle, "eval_plan", counted)
    assert oracle.sample_dataset(small_graph, structures, 6, 4, "generalization") == want
    monkeypatch.setattr(oracle, "eval_plan", eval_plan)
    # the sampler skips the attempts whose answers are provably empty
    assert all(evals[s] <= reference_evals[s] for s in structures)
    assert evals["inp"] < reference_evals["inp"]
    tracer = tracer_mod.Tracer()
    layers.instrument(tracer)
    try:
        got = oracle.sample_dataset(small_graph, structures, 6, 4, "generalization")
    finally:
        tracer.stop()
    assert got == want
    assert tracer.counts["oracle.walk_attempts"] == sum(attempts.values())
    spans = tracer.spans
    labels = []
    for span in spans:
        if span[tracer_mod.NAME] == "oracle.eval_plan":
            parent = spans[span[tracer_mod.PARENT]]
            assert parent[tracer_mod.NAME] == "oracle.sample_queries"
            assert span[tracer_mod.LABEL] == parent[tracer_mod.LABEL]
            labels.append(span[tracer_mod.LABEL])
    assert {s: labels.count(s) for s in structures} == evals
    metrics = layers.layer_metrics(tracer, ops=1)
    assert metrics["oracle.walk_attempts"] == sum(attempts.values())
    assert metrics["oracle.eval_plan_calls"] == sum(evals.values())
    assert all(metrics[f"oracle.eval_plan_ms.{s}"] > 0 for s in structures)


def test_traced_training_times_both_row_merges_every_step(monkeypatch, small_graph):
    """A traced ``train`` opens one ``training.merge_rows`` span per embedding
    table (entities, relations) for every task (one ``training.group_forward``
    span each) of every step, and the per-layer metric reads their time."""
    layers, tracer_mod = _perfbench(monkeypatch)
    dataset = oracle.sample_dataset(small_graph, ("1p", "2i", "2in"), 4, 0, "train")
    config = training.TrainConfig(d=16, h=16, negatives=4, batch_size=8, steps=3)
    tracer = tracer_mod.Tracer()
    layers.instrument(tracer)
    try:
        loop = tracer.open(layers.LOOP)
        training.train(small_graph, dataset, config)
        tracer.close(loop)
    finally:
        tracer.stop()
    names = [s[tracer_mod.NAME] for s in tracer.spans]
    tasks = names.count("training.group_forward")
    assert tasks >= config.steps
    assert names.count("training.merge_rows") == 2 * tasks
    assert layers.layer_metrics(tracer, ops=config.steps)["training.merge_rows_ms"] > 0


def test_traced_ranking_scores_every_batch_and_ranks_every_query(monkeypatch, small_graph):
    """A traced ``evaluate_ranking`` opens one ``evaluation.score`` span and
    one ``evaluation.rank`` span per embedded batch, both inside the ranking,
    and the per-layer metrics read their time."""
    layers, tracer_mod = _perfbench(monkeypatch)
    monkeypatch.setattr(evaluation, "EVAL_BATCH", 4)
    dataset = oracle.sample_dataset(small_graph, ("1p", "2in", "2u"), 6, 0, "generalization")
    config = training.TrainConfig(d=16, h=16).model_config(small_graph)
    params = ModelParams.initialize(config, 0)
    tracer = tracer_mod.Tracer()
    layers.instrument(tracer)
    try:
        loop = tracer.open(layers.LOOP)
        report = evaluation.evaluate_ranking(dataset, params)
        tracer.close(loop)
    finally:
        tracer.stop()
    spans = tracer.spans
    names = [s[tracer_mod.NAME] for s in spans]
    batches = sum(-(-len(group) // 4) for group in dataset.by_structure().values())
    assert batches > len(report.ranks)  # some structure has more than one batch
    assert names.count("evaluation.score") == batches
    assert names.count("evaluation.rank") == batches
    assert sum(len(ranks) for ranks in report.ranks.values()) == sum(
        len(sample.hard) for sample in dataset.samples)
    for span in spans:
        if span[tracer_mod.NAME] in ("evaluation.score", "evaluation.rank"):
            parent = spans[span[tracer_mod.PARENT]]
            assert parent[tracer_mod.NAME] == "evaluation.evaluate_ranking"
    metrics = layers.layer_metrics(tracer, ops=1)
    assert metrics["evaluation.score_ms"] > 0
    assert metrics["evaluation.rank_ms"] > 0
