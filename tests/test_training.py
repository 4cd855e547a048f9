import numpy as np
import pytest

from skqe import algebra, cli, kg, oracle, training
from skqe.errors import DataError
from skqe.model import ForwardContext, ModelConfig, ModelParams

from conftest import composed_group_forward, composed_realize


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


class TestTrajectory:
    @pytest.mark.parametrize("overrides", [
        {},
        {"mode": "point", "kind": "prod"},
        {"kind": "min", "union": "dm", "workers": 2},
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

    def test_deterministic_and_independent_of_workers(self, train_graph, train_dataset):
        runs = [training.train(train_graph, train_dataset, _config(steps=3, workers=w))
                for w in (1, 1, 2)]
        for params, records in runs[1:]:
            assert [r.loss for r in records] == [r.loss for r in runs[0][1]]
            for name, array in runs[0][0].arrays.items():
                np.testing.assert_array_equal(params.arrays[name], array)

    def test_frozen_batch_converges(self, train_graph, train_dataset):
        config = _config(negatives=4)
        params = ModelParams.initialize(config.model_config(train_graph), 0)
        optimizer = training.Adam(0.1)
        rng = np.random.default_rng(0)
        batch = list(range(0, len(train_dataset.samples), 5))
        losses = [training.train_step_on_batch(train_graph, train_dataset, config, params,
                                               batch, optimizer, rng) for _ in range(60)]
        assert np.all(np.isfinite(losses))
        # negatives are redrawn every step, so compare ten-step means
        assert np.mean(losses[-10:]) < np.mean(losses[:10]) - 0.1


class TestGradientMerge:
    def test_equals_scatter_add_bit_for_bit(self):
        rng = np.random.default_rng(0)
        touches = [(rng.integers(0, 30, n), rng.normal(size=(n, 8)) * 10.0 ** rng.uniform(-6, 6))
                   for n in (50, 1, 200)]
        ids, summed = training._merge_row_grads(touches)
        all_ids = np.concatenate([i for i, _ in touches])
        want_ids, inverse = np.unique(all_ids, return_inverse=True)
        want = np.zeros((want_ids.size, 8))
        np.add.at(want, inverse, np.concatenate([g for _, g in touches]))
        np.testing.assert_array_equal(ids, want_ids)
        np.testing.assert_array_equal(summed, want)

    def test_no_touches(self):
        assert training._merge_row_grads([]) is None


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


class TestTrainConfigBounds:
    @pytest.mark.parametrize("field", ["steps", "batch_size", "workers", "log_every",
                                       "negatives"])
    @pytest.mark.parametrize("value", [0, -1])
    def test_rejects_values_below_one(self, field, value):
        with pytest.raises(DataError):
            training.TrainConfig(**{field: value})

    def test_accepts_one(self):
        training.TrainConfig(steps=1, batch_size=1, workers=1, log_every=1, negatives=1)


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

    def _train(self, files, *extra):
        return cli.main(["train", "--kg", str(files / "kg"), "--queries", str(files / "q.tsv"),
                         "--out", str(files / "model.ckpt"), "--d", "16", "--h", "16",
                         "--negatives", "4", "--batch-size", "8", *extra])

    @pytest.mark.parametrize("flag", ["--steps", "--batch-size", "--workers"])
    def test_values_below_one_exit_with_data_error(self, files, flag, capsys):
        assert self._train(files, flag, "0") == cli.EXIT_DATA
        assert not (files / "model.ckpt").exists()
        assert "must be at least 1" in capsys.readouterr().err

    def test_one_step_trains(self, files):
        assert self._train(files, "--steps", "1") == cli.EXIT_OK
        assert (files / "model.ckpt").exists()

    def test_checkpoint_relation_count_is_checked(self, files, tmp_path):
        graph = kg.load_tsv_dir(str(files / "kg"))
        config = ModelConfig(graph.num_entities, graph.num_relations + 1, d=16, h=16)
        ModelParams.initialize(config, 0).save(tmp_path / "other.ckpt")
        with pytest.raises(DataError, match="relation count"):
            cli._load_checkpoint(str(tmp_path / "other.ckpt"), graph)
