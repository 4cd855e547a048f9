import dataclasses
import re
import tracemalloc

import numpy as np
import pytest

from skqe import algebra, cli, evaluation, kg, model, oracle, training
from skqe.errors import DataError, NumericError
from skqe.model import ForwardContext, ModelConfig, ModelParams

from conftest import (ReferenceMergeRowGrads, composed_group_forward, composed_realize,
                      reference_build_tasks, reference_split_picks)


@pytest.fixture(scope="module")
def train_graph():
    return kg.generate_synthetic(120, 4, 4.0, 0.1, 0.1, seed=3)


@pytest.fixture(scope="module")
def train_dataset(train_graph):
    return oracle.sample_dataset(train_graph, algebra.TRAIN_STRUCTURES, 6, 1, "train")


def _config(**overrides):
    values = dict(d=16, h=16, negatives=8, batch_size=24, steps=6, seed=2, log_every=1)
    values.update(overrides)
    return training.TrainConfig(**values)


def _first_positive_tasks(groups, per_structure, config, num_entities, rng):
    """``train``'s step tasks for fixed query rows with each query's first
    positive, so repeated steps on the same rows differ only in their
    negatives."""
    return [(group, rows, np.array([group.answers[i][0] for i in rows]), neg)
            for group, rows, _, neg in training._build_tasks(groups, per_structure, config,
                                                             num_entities, rng)]


class TestTrajectory:
    @pytest.mark.parametrize("overrides", [
        {},
        {"mode": "point", "kind": "prod"},
        {"kind": "min"},
    ])
    def test_matches_composed_reference(self, train_graph, train_dataset, monkeypatch,
                                        overrides):
        config = _config(**overrides)
        params, records = training.train(train_graph, train_dataset, config)
        with monkeypatch.context() as patch:
            patch.setattr(training, "_group_forward", composed_group_forward)
            patch.setattr(ForwardContext, "realize", composed_realize)
            ref_params, ref_records = training.train(train_graph, train_dataset, config)
        assert len(records) == config.steps
        np.testing.assert_allclose([r.loss for r in records], [r.loss for r in ref_records],
                                   rtol=0, atol=1e-10)
        for name, array in ref_params.arrays.items():
            np.testing.assert_allclose(params.arrays[name], array, rtol=0, atol=1e-10,
                                       err_msg=name)

    def test_deterministic(self, train_graph, train_dataset):
        (params, records), (again, again_records) = (
            training.train(train_graph, train_dataset, _config(steps=3)) for _ in range(2))
        assert [r.loss for r in again_records] == [r.loss for r in records]
        for name, array in params.arrays.items():
            np.testing.assert_array_equal(again.arrays[name], array, err_msg=name)

    def test_frozen_batch_converges(self, train_graph, train_dataset):
        config = _config(negatives=4)
        params = ModelParams.initialize(config.model_config(train_graph), 0)
        optimizer = training.Adam(0.1)
        rng = np.random.default_rng(0)
        groups = training._prepare_groups(train_dataset)
        rows = {s: [0, 5] for s in groups}  # two queries of each structure
        size = 2 * len(groups)
        losses = []
        for _ in range(60):
            tasks = _first_positive_tasks(groups, rows, config, train_graph.num_entities, rng)
            losses.append(training._step(params, optimizer, tasks, config)[0] / size)
        assert np.all(np.isfinite(losses))
        # negatives are redrawn every step, so compare ten-step means
        assert np.mean(losses[-10:]) < np.mean(losses[:10]) - 0.1


class TestLearning:
    """Training raises the filtered MRR of its own queries: a change that
    keeps every gradient right but stops learning fails here. On this graph
    200 steps give 3.8 to 6.6 times the untrained MRR; at lr 1e-8 the ratio
    is 1.0."""

    @pytest.fixture(scope="class")
    def graph(self):
        return kg.generate_synthetic(60, 3, 3.0, 0.1, 0.1, seed=0)

    @pytest.fixture(scope="class")
    def dataset(self, graph):
        return oracle.sample_dataset(graph, ("1p", "2p", "2i", "2in"), 20, 0, "train")

    @pytest.mark.parametrize("mode,kind", [("bounds", "luk"), ("bounds", "prod"),
                                           ("bounds", "min"), ("point", "luk")])
    def test_training_lifts_mrr_on_the_training_queries(self, graph, dataset, mode, kind):
        config = training.TrainConfig(d=16, h=16, batch_size=32, negatives=8, lr=1e-2,
                                      steps=200, mode=mode, kind=kind)
        untrained = ModelParams.initialize(config.model_config(graph), config.seed)
        before = evaluation.evaluate_ranking(dataset, untrained).average().mrr
        params, _ = training.train(graph, dataset, config)
        after = evaluation.evaluate_ranking(dataset, params).average().mrr
        assert after >= 1.5 * before, (before, after)


class TestEntityTable:
    def test_one_realization_of_the_table_per_step(self, train_graph, train_dataset,
                                                   monkeypatch):
        config = _config(steps=3)
        params = ModelParams.initialize(config.model_config(train_graph), config.seed)
        calls = []
        realize_parts = model._realize_parts

        def recording(rows, mode):
            calls.append((rows is params.arrays["entity"],
                          np.shares_memory(rows, params.arrays["entity"])))
            return realize_parts(rows, mode)

        monkeypatch.setattr(model, "_realize_parts", recording)
        training.train(train_graph, train_dataset, config, params=params)
        # Skolem outputs realize too; they do not share the entity table. The
        # final parameters' inference check realizes the table once more.
        assert [c for c in calls if c[1]] == [(True, True)] * (config.steps + 1)
        assert len(calls) > config.steps


class TestGradientMerge:
    @staticmethod
    def _scatter_add(touches, rows):
        """The merge's reference: ``np.add.at`` over the concatenated touches,
        kept for the touched ids."""
        width = touches[0][1].shape[-1]
        want = np.zeros((rows, width))
        np.add.at(want, np.concatenate([i for i, _ in touches]),
                  np.concatenate([g for _, g in touches]))
        ids = np.unique(np.concatenate([i for i, _ in touches]))
        return ids, want[ids]

    @staticmethod
    def _fold(tasks, rows, width=8):
        """Fold each task's touches in turn into one zeroed table, as a step
        does; the touched ids and their rows."""
        table, touched = np.zeros((rows, width)), np.zeros(rows, dtype=bool)
        for touches in tasks:
            training._merge_row_grads(touches, table, touched)
        ids = np.flatnonzero(touched)
        return ids, table[ids]

    def _check(self, touches, rows):
        want_ids, want = self._scatter_add(touches, rows)
        # one task with every touch, and one task per touch
        for tasks in ([touches], [[touch] for touch in touches]):
            ids, summed = self._fold(tasks, rows)
            np.testing.assert_array_equal(ids, want_ids)
            np.testing.assert_array_equal(summed, want)

    @staticmethod
    def _grads(rng, n, width=8):
        return rng.normal(size=(n, width)) * 10.0 ** rng.uniform(-6, 6, (n, 1))

    def test_equals_scatter_add_bit_for_bit(self):
        rng = np.random.default_rng(0)
        self._check([(rng.integers(0, 30, n), self._grads(rng, n)) for n in (50, 1, 200)], 30)

    # touches of more than 64 rows below, so that a size threshold cannot
    # stand in for knowing whether a touch's ids are distinct

    @pytest.mark.parametrize("ids", [[1, 1, 2], np.repeat(np.arange(50), 2)])
    def test_sorted_repeated_ids(self, ids):
        rng = np.random.default_rng(1)
        ids = np.asarray(ids, dtype=np.int64)
        self._check([(ids, self._grads(rng, ids.size))], 60)

    def test_repeated_ids_after_a_distinct_touch_of_the_same_ids(self):
        rng = np.random.default_rng(2)
        distinct = np.arange(0, 200, 2)
        repeated = rng.choice(distinct, 120)
        self._check([(distinct, self._grads(rng, distinct.size)),
                     (repeated, self._grads(rng, repeated.size)),
                     (distinct[::-1].copy(), self._grads(rng, distinct.size))], 200)

    def test_table_larger_than_the_touched_ids(self):
        rng = np.random.default_rng(3)
        touches = [(rng.integers(0, 40, 100), self._grads(rng, 100)),
                   (np.arange(10, 30), self._grads(rng, 20))]
        ids, summed = self._fold([touches], 500)
        assert ids.max() < 40 and summed.shape == (ids.size, 8)
        self._check(touches, 500)

    def test_no_touches(self):
        ids, summed = self._fold([[], []], 5)
        assert ids.size == 0 and summed.shape == (0, 8)

    @pytest.mark.parametrize("overrides,replacement", [
        ({}, False),
        ({"mode": "point", "kind": "prod"}, False),
        ({"kind": "min"}, False),
        ({"negatives": 118}, True),
    ])
    def test_training_equals_the_concatenating_merge(self, train_graph, train_dataset,
                                                     monkeypatch, caplog, overrides,
                                                     replacement):
        config = _config(**overrides)
        params, records = training.train(train_graph, train_dataset, config)
        assert ("with replacement" in caplog.text) == replacement
        with monkeypatch.context() as patch:
            patch.setattr(training, "_merge_row_grads", ReferenceMergeRowGrads())
            ref_params, ref_records = training.train(train_graph, train_dataset, config)
        np.testing.assert_array_equal([r.loss for r in records], [r.loss for r in ref_records])
        for name, array in ref_params.arrays.items():
            np.testing.assert_array_equal(params.arrays[name], array, err_msg=name)


class TestStepFold:
    @staticmethod
    def _tasks(train_graph, train_dataset, config, rng):
        """One task per structure, two queries each."""
        groups = training._prepare_groups(train_dataset)
        return _first_positive_tasks(groups, {s: [0, 1] for s in groups}, config,
                                     train_graph.num_entities, rng)

    def test_each_task_is_folded_before_the_next_runs(self, train_graph, train_dataset,
                                                      monkeypatch):
        config = _config()
        params = ModelParams.initialize(config.model_config(train_graph), 0)
        tasks = self._tasks(train_graph, train_dataset, config, np.random.default_rng(0))
        events = []
        group_forward, merge = training._group_forward, training._merge_row_grads

        def forward_spy(ctx, group, *args):
            events.append(("forward", group.structure))
            return group_forward(ctx, group, *args)

        def merge_spy(touches, table, touched):
            events.append(("merge", table.shape[1]))
            return merge(touches, table, touched)

        monkeypatch.setattr(training, "_group_forward", forward_spy)
        monkeypatch.setattr(training, "_merge_row_grads", merge_spy)
        training._step(params, training.Adam(0.1), tasks, config)
        widths = (2 * config.d, config.d)  # the entity table, then the relation table
        assert len(tasks) > 2
        assert events == [e for task in tasks for e in (
            ("forward", task[0].structure), ("merge", widths[0]), ("merge", widths[1]))]

    def test_non_finite_loss_in_a_later_task_changes_nothing(self, train_graph, train_dataset,
                                                             monkeypatch):
        config = _config()
        params = ModelParams.initialize(config.model_config(train_graph), 0)
        optimizer = training.Adam(0.1)
        rng = np.random.default_rng(0)
        # so that the moments are not all zero
        training._step(params, optimizer, self._tasks(train_graph, train_dataset, config, rng),
                       config)
        tasks = self._tasks(train_graph, train_dataset, config, rng)
        poisoned = tasks[1][0].structure
        group_forward = training._group_forward

        def nan_second(ctx, group, *args):
            loss_vec, d_pos, d_neg = group_forward(ctx, group, *args)
            if group.structure == poisoned:
                loss_vec = loss_vec * float("nan")
            return loss_vec, d_pos, d_neg

        monkeypatch.setattr(training, "_group_forward", nan_second)
        before = params.copy()
        moments = {name: (optimizer._m[name].copy(), optimizer._v[name].copy())
                   for name in optimizer._m}
        with pytest.raises(NumericError, match="non-finite loss at step 2"):
            training._step(params, optimizer, tasks, config)
        assert optimizer.t == 1
        assert optimizer._m.keys() == moments.keys()
        for name, (m, v) in moments.items():
            np.testing.assert_array_equal(optimizer._m[name], m, err_msg=name)
            np.testing.assert_array_equal(optimizer._v[name], v, err_msg=name)
        for name, array in before.arrays.items():
            np.testing.assert_array_equal(params.arrays[name], array, err_msg=name)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_final_parameters_that_embed_non_finite_are_a_numeric_error(self, train_graph,
                                                                          train_dataset):
        # one step at lr 1e300 keeps its loss finite, but not the next embedding
        with pytest.raises(NumericError, match="^1p: non-finite query embedding$"):
            training.train(train_graph, train_dataset, _config(steps=1, lr=1e300))


def _loop_negatives(answers, k, num_entities, rng, filter_answers=True):
    """The per-candidate rejection loop that ``sample_negatives`` vectorizes,
    with its draw with replacement from a pool of fewer than k non-answers
    (from every entity when there is none)."""
    excluded = set(answers) if filter_answers else set()
    pool = [e for e in range(num_entities) if e not in excluded]
    if len(pool) < k:
        return rng.choice(pool or list(range(num_entities)), size=k, replace=True)
    out = np.empty(k, dtype=np.int64)
    filled = 0
    while filled < k:
        draw = rng.integers(0, num_entities, size=2 * (k - filled))
        for candidate in draw:
            if int(candidate) in excluded:
                continue
            out[filled] = candidate
            filled += 1
            if filled == k:
                break
    return out


class TestSampleNegatives:
    @pytest.mark.parametrize("answers,k,n,filtered", [
        ((1, 2, 3), 5, 10, True),
        (tuple(range(40)), 16, 60, True),
        ((), 8, 9, True),
        (tuple(range(40)), 16, 50, False),
    ])
    def test_same_draws_as_rejection_loop(self, answers, k, n, filtered):
        got_rng, want_rng = np.random.default_rng(4), np.random.default_rng(4)
        for _ in range(5):
            got = training.sample_negatives(answers, k, n, got_rng, filtered)
            want = _loop_negatives(answers, k, n, want_rng, filtered)
            np.testing.assert_array_equal(got, want)
            if filtered:
                assert not set(got.tolist()) & set(answers)
        assert got_rng.integers(1 << 30) == want_rng.integers(1 << 30)

    def test_too_many_negatives(self):
        with pytest.raises(DataError):
            training.sample_negatives((), 11, 10, np.random.default_rng(0))

    def test_falls_back_to_replacement(self):
        negatives = training.sample_negatives(tuple(range(8)), 4, 10, np.random.default_rng(0))
        assert set(negatives.tolist()) <= {8, 9}

    def test_train_warns_once_about_short_pools(self, toy_graph, caplog):
        # every query of the toy graph has 1-2 answers among 4 entities, so
        # each one falls back to sampling 3 negatives with replacement
        dataset = oracle.sample_dataset(toy_graph, ("1p",), 4, 0, "train")
        config = training.TrainConfig(d=16, h=16, negatives=3, batch_size=8, steps=3,
                                      log_every=1)
        with caplog.at_level("WARNING", logger=training.log.name):
            training.train(toy_graph, dataset, config)
        warnings = [r for r in caplog.records if r.name == training.log.name]
        assert len(warnings) == 1
        assert "fewer than 3 non-answer entities" in warnings[0].getMessage()


class TestMarginLossReference:
    """``_group_forward``'s per-query losses on a frozen batch against the
    plain-numpy ``margin_loss`` of each query alone: its one branch from
    ``model.embed_instance``, its rows from ``model.entity_embedding``. The
    tolerance is the one the benchmark's frozen-batch check
    (``perfbench/checks.py``) judges every training run by."""

    RTOL, ATOL = 1e-9, 1e-12

    def _check(self, graph, dataset, structure, config):
        params = ModelParams.initialize(config.model_config(graph), 7)
        group = training._prepare_groups(dataset)[structure]
        samples = dataset.by_structure()[structure]
        rows = np.arange(len(samples))
        assert rows.size
        rng = np.random.default_rng(11)
        pos = np.array([rng.choice(group.answers[i]) for i in rows])
        neg = np.stack([training.sample_negatives(group.answers[i], config.negatives,
                                                  graph.num_entities, rng) for i in rows])
        ctx = ForwardContext(params, train=True)
        loss_vec, _, _ = training._group_forward(ctx, group, rows, pos, neg, config)
        want = []
        for i in rows:
            qe = model.embed_instance(samples[i].instance, params, config.union)
            assert len(qe.branches) == 1
            want.append(training.margin_loss(
                qe.branches, model.entity_embedding(int(pos[i]), params),
                [model.entity_embedding(int(z), params) for z in neg[i]], config.gamma))
        assert loss_vec.value.shape == (len(rows),)
        np.testing.assert_allclose(loss_vec.value, want, rtol=self.RTOL, atol=self.ATOL)

    @pytest.mark.parametrize("kind", ("luk", "prod", "min"))
    @pytest.mark.parametrize("mode", model.MODES)
    @pytest.mark.parametrize("structure", algebra.TRAIN_STRUCTURES)
    def test_each_training_structure(self, train_graph, train_dataset, structure, mode, kind):
        self._check(train_graph, train_dataset, structure, _config(mode=mode, kind=kind))


class TestTrainConfigBounds:
    def test_fields_are_the_settings_a_run_can_change(self):
        assert [f.name for f in dataclasses.fields(training.TrainConfig)] == [
            "d", "h", "gamma", "negatives", "batch_size", "steps", "lr", "seed", "kind",
            "mode", "union", "filter_negatives", "log_every", "checkpoint_every"]

    @pytest.mark.parametrize("field", ["steps", "batch_size", "log_every", "negatives"])
    @pytest.mark.parametrize("value", [0, -1])
    def test_rejects_values_below_one(self, field, value):
        with pytest.raises(DataError):
            training.TrainConfig(**{field: value})

    def test_accepts_one(self):
        training.TrainConfig(steps=1, batch_size=1, log_every=1, negatives=1)

    def test_workers_is_only_a_stub_for_one(self):
        config = training.TrainConfig(workers=1)
        assert "workers" not in dataclasses.asdict(config)
        assert dataclasses.replace(config, steps=2).steps == 2

    @pytest.mark.parametrize("workers", [2, 0, -1])
    def test_workers_other_than_one_is_a_data_error(self, workers):
        with pytest.raises(DataError, match=f"workers must be 1, got {workers}"):
            training.TrainConfig(workers=workers)

    @pytest.mark.parametrize("field,value", [
        ("lr", 0.0), ("lr", -1e-4), ("lr", float("nan")), ("lr", float("inf")),
        ("gamma", 0.0), ("gamma", float("nan")), ("gamma", float("inf")),
        ("checkpoint_every", -1),
    ])
    def test_rejects_bad_optimizer_and_schedule_values(self, field, value):
        with pytest.raises(DataError, match=field):
            training.TrainConfig(**{field: value})

    def test_accepts_edge_values(self):
        training.TrainConfig(checkpoint_every=0, lr=1e-12)

    @pytest.mark.parametrize("union", ["dm", "bogus"])
    def test_union_is_only_a_stub_for_dnf(self, union):
        with pytest.raises(DataError, match=f"union must be 'dnf', got '{union}'"):
            training.TrainConfig(union=union)
        assert training.TrainConfig().union == "dnf"


class TestOneBranchPerTrainingQuery:
    """``train`` refuses the evaluation-only structures, the unions among
    them, whatever the dataset's mode, before it writes to ``params``."""

    @pytest.mark.parametrize("metadata", [{}, {"mode": "train"}, {"mode": "generalization"}],
                             ids=["no-meta", "train", "generalization"])
    @pytest.mark.parametrize("refused", [("2u", "up"), ("2u",), ("up",), ("ip",), ("pi",)],
                             ids="+".join)
    def test_evaluation_only_structures_are_refused_before_any_write(self, train_graph,
                                                                     refused, metadata):
        assert set(refused).isdisjoint(algebra.TRAIN_STRUCTURES)
        sampled = oracle.sample_dataset(train_graph, ("1p", *refused), 4, 1, "train")
        assert set(sampled.by_structure()) == {"1p", *refused}
        dataset = oracle.QueryDataset(sampled.samples, metadata)
        config = _config()
        params = ModelParams.initialize(config.model_config(train_graph), 0)
        before = params.copy()
        with pytest.raises(DataError, match=re.escape(
                f"structures {list(refused)} are evaluation-only and cannot be trained on")):
            training.train(train_graph, dataset, config, params=params)
        assert params.extra == before.extra == {}
        for name, array in before.arrays.items():
            np.testing.assert_array_equal(params.arrays[name], array, err_msg=name)

    def test_prepare_groups_refuses_them_too(self, train_graph):
        sampled = oracle.sample_dataset(train_graph, ("up", "2i"), 4, 1, "train")
        with pytest.raises(DataError, match=r"structures \['up'\] are evaluation-only"):
            training._prepare_groups(oracle.QueryDataset(sampled.samples, {}))


class TestNoHeldOutAnswers:
    """``train`` refuses a query with hard answers, whatever the dataset's
    mode, before it writes to ``params``: a training query is answered on the
    train graph only, so its answers are its positives."""

    @staticmethod
    def _refused_before_any_write(graph, dataset, match):
        config = _config()
        params = ModelParams.initialize(config.model_config(graph), 0)
        before = params.copy()
        with pytest.raises(DataError, match=match):
            training.train(graph, dataset, config, params=params)
        assert params.extra == before.extra == {}
        for name, array in before.arrays.items():
            np.testing.assert_array_equal(params.arrays[name], array, err_msg=name)

    def test_generalization_dataset(self, train_graph):
        dataset = oracle.sample_dataset(train_graph, ("1p", "2p", "2i"), 4, 1, "generalization")
        n = len(dataset.samples)
        assert n and all(s.hard for s in dataset.samples)
        self._refused_before_any_write(train_graph, dataset,
                                       f"hard answers in {n} of {n} queries")

    def test_one_hard_answer_in_a_dataset_without_meta(self, train_graph, train_dataset):
        first, *rest = train_dataset.samples
        outside = next(e for e in range(train_graph.num_entities) if e not in first.easy)
        samples = [oracle.QuerySample(first.instance, first.easy, (outside,)), *rest]
        self._refused_before_any_write(train_graph, oracle.QueryDataset(samples, {}),
                                       f"hard answers in 1 of {len(samples)} queries")

    def test_positives_are_the_answers(self, train_dataset):
        samples = train_dataset.by_structure()
        for structure, group in training._prepare_groups(train_dataset).items():
            assert group.positives is group.answers
            assert group.answers == [s.easy for s in samples[structure]]


class TestTrainChecksItsParams:
    def test_more_negatives_than_entities_is_refused_before_any_write(self, train_graph,
                                                                      train_dataset):
        config = _config(negatives=train_graph.num_entities + 1)
        params = ModelParams.initialize(config.model_config(train_graph), 0)
        before = params.copy()
        with pytest.raises(DataError, match=f"cannot draw {config.negatives} negatives from "
                                            f"{train_graph.num_entities} entities"):
            training.train(train_graph, train_dataset, config, params=params)
        assert params.extra == before.extra == {}
        for name, array in before.arrays.items():
            np.testing.assert_array_equal(params.arrays[name], array, err_msg=name)

    @pytest.mark.parametrize("field,value", [("kind", "prod"), ("mode", "point"),
                                             ("d", 32), ("h", 32)])
    def test_params_of_another_model_config_are_a_data_error(self, train_graph,
                                                               train_dataset, field, value):
        # without the check, luk parameters trained silently under a prod config
        params = ModelParams.initialize(_config().model_config(train_graph), 0)
        before = {name: array.copy() for name, array in params.arrays.items()}
        with pytest.raises(DataError, match="cannot train under"):
            training.train(train_graph, train_dataset, _config(**{field: value}), params=params)
        assert params.extra == {}
        for name, array in before.items():
            np.testing.assert_array_equal(params.arrays[name], array)

    def test_params_of_another_graph_are_a_data_error(self, train_graph, train_dataset):
        other = kg.generate_synthetic(121, 4, 4.0, 0.1, 0.1, seed=3)
        params = ModelParams.initialize(_config().model_config(other), 0)
        with pytest.raises(DataError, match="cannot train under"):
            training.train(train_graph, train_dataset, _config(), params=params)
        assert params.extra == {}

    def test_matching_params_train(self, train_graph, train_dataset):
        config = _config(steps=1)
        params = ModelParams.initialize(config.model_config(train_graph), 0)
        trained, _ = training.train(train_graph, train_dataset, config, params=params)
        assert trained is params
        assert params.extra["train_config"] == dataclasses.asdict(config)

    def test_a_second_train_call_records_its_own_config(self, train_graph, train_dataset):
        # a warm-up run, then the measured run on the same params
        first, second = _config(steps=1, lr=1e-4), _config(steps=2, lr=1e-3)
        params = ModelParams.initialize(first.model_config(train_graph), 0)
        training.train(train_graph, train_dataset, first, params=params)
        training.train(train_graph, train_dataset, second, params=params)
        assert params.extra["train_config"] == dataclasses.asdict(second)


class TestTrainCli:
    @pytest.fixture(scope="class")
    def files(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("cli")
        assert cli.main(["gen-kg", "--entities", "60", "--relations", "3",
                         "--out", str(root / "kg")]) == cli.EXIT_OK
        assert cli.main(["gen-queries", "--kg", str(root / "kg"), "--mode", "train",
                         "--per-structure", "3", "--structures", "1p,2p,2i",
                         "--out", str(root / "q.tsv")]) == cli.EXIT_OK
        return root

    def _train(self, files, *extra, out=None):
        out = files / "model.ckpt" if out is None else out
        return cli.main(["train", "--kg", str(files / "kg"), "--queries", str(files / "q.tsv"),
                         "--out", str(out), "--d", "16", "--h", "16",
                         "--negatives", "4", "--batch-size", "8", *extra])

    @pytest.mark.parametrize("value", ["0", "-1"])
    def test_hidden_width_below_one_exits_with_data_error(self, files, tmp_path, value,
                                                           capsys):
        assert self._train(files, "--steps", "1", "--h", value,
                           out=tmp_path / "m.ckpt") == cli.EXIT_DATA
        assert list(tmp_path.iterdir()) == []
        assert f"hidden width h must be at least 1, got {value}" in capsys.readouterr().err

    def test_one_step_trains(self, files):
        assert self._train(files, "--steps", "1") == cli.EXIT_OK
        assert (files / "model.ckpt").exists()

    def test_outputs_in_missing_directories_are_written(self, files, tmp_path):
        out, log = tmp_path / "model" / "m.ckpt", tmp_path / "log" / "train.csv"
        assert self._train(files, "--steps", "2", "--checkpoint-every", "1", "--log", str(log),
                           out=out) == cli.EXIT_OK
        assert sorted(p.name for p in out.parent.iterdir()) == ["m.ckpt", "m.ckpt.step1",
                                                                 "m.ckpt.step2"]
        assert len(log.read_text().splitlines()) == 3

    def test_generalization_queries_exit_with_data_error(self, files, tmp_path, capsys):
        queries = tmp_path / "gen.jsonl"
        assert cli.main(["gen-queries", "--kg", str(files / "kg"), "--mode", "generalization",
                         "--per-structure", "3", "--structures", "1p,2p,2i",
                         "--out", str(queries)]) == cli.EXIT_OK
        code = cli.main(["train", "--kg", str(files / "kg"), "--queries", str(queries),
                         "--out", str(tmp_path / "m.ckpt"), "--steps", "1"])
        assert code == cli.EXIT_DATA
        assert sorted(p.name for p in tmp_path.iterdir()) == ["gen.jsonl"]
        assert "need held-out edges" in capsys.readouterr().err

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_loss_exits_with_numeric_error(self, files, capsys):
        assert self._train(files, "--lr", "1e300", "--steps", "3") == cli.EXIT_NUMERIC
        assert "numeric failure: non-finite loss" in capsys.readouterr().err

    @pytest.mark.parametrize("flags", [("--checkpoint-every", "-1"), ("--lr", "0")])
    def test_bad_schedule_exits_with_data_error(self, files, tmp_path, flags, capsys):
        assert self._train(files, "--steps", "2", *flags,
                           out=tmp_path / "m.ckpt") == cli.EXIT_DATA
        assert list(tmp_path.iterdir()) == []
        assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize("steps,log_every,every,logged,saved", [
        (6, 4, 3, [1, 4, 6], [3, 6]),
        (5, 2, 2, [1, 2, 4, 5], [2, 4]),
    ], ids=["every-divides-steps", "every-does-not-divide-steps"])
    def test_log_and_step_checkpoints(self, files, tmp_path, capsys, steps, log_every, every,
                                      logged, saved):
        out, log = tmp_path / "m.ckpt", tmp_path / "train.csv"
        assert self._train(files, "--steps", str(steps), "--log-every", str(log_every),
                           "--checkpoint-every", str(every), "--log", str(log),
                           out=out) == cli.EXIT_OK
        header, *lines = log.read_text().splitlines()
        assert header == "step,loss,pos_score,neg_score,seconds"
        rows = [line.split(",") for line in lines]
        assert [int(row[0]) for row in rows] == logged
        printed = capsys.readouterr().out.splitlines()[0]
        assert printed.startswith(f"trained {steps} steps: loss {float(rows[-1][1]):.4f}, ")

        names = sorted(p.name for p in tmp_path.iterdir() if p.name.startswith("m.ckpt."))
        assert names == sorted(f"m.ckpt.step{n}" for n in saved)
        graph = kg.load_tsv_dir(str(files / "kg"))
        final = out.read_bytes()
        for n in saved:
            path = tmp_path / f"m.ckpt.step{n}"
            cli._load_checkpoint(str(path), graph)
            assert (path.read_bytes() == final) == (n == steps)

    def test_checkpoint_relation_count_is_checked(self, files, tmp_path):
        graph = kg.load_tsv_dir(str(files / "kg"))
        config = ModelConfig(graph.num_entities, graph.num_relations + 1, d=16, h=16)
        ModelParams.initialize(config, 0).save(tmp_path / "other.ckpt")
        with pytest.raises(DataError, match="relation count"):
            cli._load_checkpoint(str(tmp_path / "other.ckpt"), graph)


class _CountedSampleNegatives:
    """``training.sample_negatives``, counting its calls."""

    def __init__(self, monkeypatch):
        self.calls, self._inner = 0, training.sample_negatives
        monkeypatch.setattr(training, "sample_negatives", self)

    def __call__(self, *args):
        self.calls += 1
        return self._inner(*args)


def _group(answers):
    """A group whose queries have the given answers, each sorted and distinct."""
    n = len(answers)
    return training._StructureGroup("1p", np.zeros((n, 1), dtype=np.int64),
                                    np.zeros((n, 1), dtype=np.int64), list(answers))


class TestDrawNegatives:
    N = 40
    FEW = [(1, 2, 3), (), (5,), (0, 39), (7, 8)]  # every query keeps k = 8 from 16 draws
    MOST = tuple(range(9, 40))  # 9 non-answers: a round of 16 draws keeps fewer than 8
    NEARLY_ALL = tuple(range(35))  # 5 non-answers: drawn with replacement

    def _check(self, monkeypatch, answers, rows, k, filtered=True):
        """The batched draw against ``_loop_negatives`` row by row, from one
        seed: the same ids and the same generator state after. Returns the
        number of one-row calls the batched draw made."""
        counted = _CountedSampleNegatives(monkeypatch)
        got_rng, want_rng = np.random.default_rng(9), np.random.default_rng(9)
        got = training._draw_negatives(_group(answers), np.asarray(rows, dtype=np.int64), k,
                                       self.N, got_rng, filtered)
        want = np.stack([_loop_negatives(answers[i], k, self.N, want_rng, filtered)
                         for i in rows])
        np.testing.assert_array_equal(got, want)
        assert got_rng.bit_generator.state == want_rng.bit_generator.state
        if filtered:
            for i, row in zip(rows, got):
                if self.N - len(answers[i]) >= k:
                    assert not set(row.tolist()) & set(answers[i])
        return counted.calls

    def test_one_draw_when_every_row_keeps_k(self, monkeypatch):
        rows = [0, 3, 3, 1, 4, 2, 0]
        assert self._check(monkeypatch, self.FEW, rows, 8) == 0

    def test_row_that_keeps_fewer_than_k_in_the_middle(self, monkeypatch):
        answers = self.FEW + [self.MOST]
        rows = [0, 3, 5, 1, 4]
        assert self._check(monkeypatch, answers, rows, 8) == len(rows)

    def test_pool_fallback_row_in_the_middle(self, monkeypatch):
        answers = self.FEW + [self.NEARLY_ALL]
        rows = [2, 0, 5, 4, 5, 1]
        assert self._check(monkeypatch, answers, rows, 8) == len(rows)

    def test_unfiltered(self, monkeypatch):
        answers = self.FEW + [self.MOST, self.NEARLY_ALL]
        assert self._check(monkeypatch, answers, [5, 6, 0, 6, 3], 8, filtered=False) == 0

    def test_row_without_answers(self, monkeypatch):
        assert self._check(monkeypatch, [(), (), (4,)], [0, 2, 1, 1], 20) == 0

    def test_k_equal_to_the_non_answer_count(self, monkeypatch):
        # a round of 2k = 76 draws keeps 38 of 38 non-answers
        assert self._check(monkeypatch, self.FEW, [3, 4, 3], self.N - 2) == 0
        # a round of 16 draws among 32 answers keeps fewer than 8
        answers = self.FEW + [tuple(range(4, 36))]
        assert self._check(monkeypatch, answers, [0, 5, 1], 8) == 3

    def test_more_negatives_than_entities(self):
        with pytest.raises(DataError, match="cannot draw 41 negatives from 40 entities"):
            training._draw_negatives(_group(self.FEW), np.array([0]), 41, self.N,
                                     np.random.default_rng(0), True)

    def test_builds_nothing_of_shape_rows_by_entities(self):
        # (64, 10**6) booleans would be 64 MB
        tracemalloc.start()
        try:
            training._draw_negatives(_group(self.FEW), np.arange(64) % 5, 4, 10 ** 6,
                                     np.random.default_rng(0), True)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 << 20


class TestWholeArrayDraws:
    def test_bounded_draws_take_the_stream_value_by_value(self):
        # what the batched draws rely on: one call with per-row bounds, or
        # one (rows, m) call, reads the generator as the per-row calls do; a
        # bound of 1 reads nothing
        for seed in range(5):
            counts = np.array([1, 3, 1, 7, 2000, 1, 2])
            got_rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            got = got_rng.integers(0, counts)
            want = [want_rng.integers(int(c)) for c in counts]
            np.testing.assert_array_equal(got, want)
            got = got_rng.integers(0, 2000, size=(50, 256))
            want = np.stack([want_rng.integers(0, 2000, size=256) for _ in range(50)])
            np.testing.assert_array_equal(got, want)
            assert got_rng.bit_generator.state == want_rng.bit_generator.state

    def test_split_picks_keeps_pick_order(self):
        order, starts = ["1p", "2p", "3p"], np.array([0, 3, 3, 7])
        picks = np.random.default_rng(0).integers(0, 7, 40)
        got = training._split_picks(picks, order, starts)
        want = reference_split_picks(picks, order, starts)
        assert got.keys() == set(order)
        for structure in order:
            np.testing.assert_array_equal(got[structure], want.get(structure, []))

    @staticmethod
    def _train_both(graph, dataset, config, monkeypatch):
        params, records = training.train(graph, dataset, config)
        with monkeypatch.context() as patch:
            patch.setattr(training, "_split_picks", reference_split_picks)
            patch.setattr(training, "_build_tasks", reference_build_tasks)
            ref_params, ref_records = training.train(graph, dataset, config)
        np.testing.assert_array_equal([r.loss for r in records], [r.loss for r in ref_records])
        for name, array in ref_params.arrays.items():
            np.testing.assert_array_equal(params.arrays[name], array, err_msg=name)

    def test_toy_graph_where_every_query_falls_back(self, toy_graph, monkeypatch):
        dataset = oracle.sample_dataset(toy_graph, ("1p",), 4, 0, "train")
        config = training.TrainConfig(d=16, h=16, negatives=3, batch_size=8, steps=4,
                                      log_every=1)
        self._train_both(toy_graph, dataset, config, monkeypatch)

    @pytest.mark.parametrize("overrides", [
        {},
        {"filter_negatives": False},
        {"negatives": 114},  # queries with more than 6 answers fall back
        {"mode": "point", "kind": "prod"},
    ])
    def test_matches_the_per_row_step_builder(self, train_graph, train_dataset, monkeypatch,
                                              overrides):
        self._train_both(train_graph, train_dataset, _config(**overrides), monkeypatch)

    def test_paper_shape_makes_no_one_row_call(self, monkeypatch):
        graph = kg.generate_synthetic(2000, 20, 4.0, 0.1, 0.1, seed=0)
        dataset = oracle.sample_dataset(graph, algebra.TRAIN_STRUCTURES, 10, 1, "train")
        counted = _CountedSampleNegatives(monkeypatch)
        training.train(graph, dataset, training.TrainConfig(d=16, h=16, steps=2))
        assert counted.calls == 0

    def test_train_graph_makes_no_one_row_call(self, train_graph, train_dataset, monkeypatch):
        # at most 7 answers among 120 entities: no query keeps fewer than 8 of 16
        counted = _CountedSampleNegatives(monkeypatch)
        training.train(train_graph, train_dataset, _config())
        assert counted.calls == 0
