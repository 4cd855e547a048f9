import dataclasses

import numpy as np
import pytest

from skqe import algebra, autodiff as ad, cli, kg, model, oracle, training
from skqe.errors import DataError, NumericError
from skqe.model import ForwardContext, ModelConfig, ModelParams

from conftest import ReferenceMergeRowGrads, composed_group_forward, composed_realize


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
    return [(group, rows, np.array([group.positives[i][0] for i in rows]), neg)
            for group, rows, _, neg in training._build_tasks(groups, per_structure, config,
                                                             num_entities, rng)]


class TestTrajectory:
    @pytest.mark.parametrize("overrides", [
        {},
        {"mode": "point", "kind": "prod"},
        {"kind": "min", "union": "dm"},
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
        # Skolem outputs realize too; they do not share the entity table
        assert [c for c in calls if c[1]] == [(True, True)] * config.steps
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
        ({"kind": "min", "union": "dm"}, False),
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
                loss_vec = ad.scale(loss_vec, float("nan"))
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


def _loop_negatives(answers, k, num_entities, rng, filter_answers=True):
    """The per-candidate rejection loop that ``sample_negatives`` vectorizes."""
    excluded = set(answers) if filter_answers else set()
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


class TestTrainConfigBounds:
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
        ("beta1", -0.1), ("beta1", 1.0), ("beta1", float("nan")),
        ("beta2", -0.1), ("beta2", 1.0), ("beta2", float("nan")),
        ("eps", 0.0), ("eps", -1e-8), ("eps", float("nan")), ("eps", float("inf")),
        ("gamma", 0.0), ("gamma", float("nan")), ("gamma", float("inf")),
        ("checkpoint_every", -1),
    ])
    def test_rejects_bad_optimizer_and_schedule_values(self, field, value):
        with pytest.raises(DataError, match=field):
            training.TrainConfig(**{field: value})

    def test_accepts_edge_values(self):
        training.TrainConfig(beta1=0.0, beta2=0.0, checkpoint_every=0, lr=1e-12, eps=1e-300)


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

    def test_config_file_sets_fields(self, files, tmp_path):
        (tmp_path / "train.cfg").write_text(
            "# settings\nsteps = 2\ngamma = 0.5  # margin\n\nattention = off\nkind = prod\n")
        out = tmp_path / "m.ckpt"
        assert self._train(files, "--config", str(tmp_path / "train.cfg"),
                           out=out) == cli.EXIT_OK
        stored = ModelParams.load(out).extra["train_config"]
        assert (stored["steps"], stored["gamma"], stored["attention"], stored["kind"]) == (
            2, 0.5, False, "prod")

    def test_flag_overrides_config_file(self, files, tmp_path):
        (tmp_path / "train.cfg").write_text("steps = 3\nlr = 0.01\n")
        out = tmp_path / "m.ckpt"
        assert self._train(files, "--config", str(tmp_path / "train.cfg"), "--steps", "1",
                           out=out) == cli.EXIT_OK
        stored = ModelParams.load(out).extra["train_config"]
        assert (stored["steps"], stored["lr"]) == (1, 0.01)

    @pytest.mark.parametrize("text,message", [
        ("steps = 1\nlearning_rate = 0.1\n", "unknown config key 'learning_rate'"),
        ("steps = 1\nattention = maybe\n", "cannot parse boolean"),
        ("steps = 0\n", "steps must be at least 1, got 0"),
        ("steps = 1\nworkers = 1\n", "unknown config key 'workers'"),
        ("# settings\nsteps = abc\n", "train.cfg:2: cannot parse int from 'abc' for 'steps'"),
        ("steps = 1\nlr = 1e-3x\n", "train.cfg:2: cannot parse float from '1e-3x' for 'lr'"),
    ], ids=["unknown-key", "bad-boolean", "steps-zero", "removed-workers-key", "bad-int",
            "bad-float"])
    def test_bad_config_file_exits_with_data_error(self, files, tmp_path, text, message,
                                                   capsys):
        (tmp_path / "train.cfg").write_text(text)
        assert self._train(files, "--config", str(tmp_path / "train.cfg"),
                           out=tmp_path / "m.ckpt") == cli.EXIT_DATA
        assert not (tmp_path / "m.ckpt").exists()
        assert message in capsys.readouterr().err

    def test_checkpoint_relation_count_is_checked(self, files, tmp_path):
        graph = kg.load_tsv_dir(str(files / "kg"))
        config = ModelConfig(graph.num_entities, graph.num_relations + 1, d=16, h=16)
        ModelParams.initialize(config, 0).save(tmp_path / "other.ckpt")
        with pytest.raises(DataError, match="relation count"):
            cli._load_checkpoint(str(tmp_path / "other.ckpt"), graph)
