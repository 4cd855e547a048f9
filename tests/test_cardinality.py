import numpy as np
import pytest

from skqe import autodiff as ad, cardinality, kg, logic, model, oracle
from skqe.errors import DataError
from skqe.model import ForwardContext, ModelConfig, ModelParams
from skqe.oracle import QueryDataset, QuerySample

from conftest import reference_cardinality_head
from test_autodiff import ATOL, RTOL, numeric_grad

D = 16
HEAD_PARAMS = ("H1", "H1b", "H2", "H2b", "H3", "H3b")


@pytest.fixture(scope="module")
def graph():
    return kg.generate_synthetic(23, 3, 3.0, 0.1, 0.1, seed=2)


@pytest.fixture(scope="module")
def dataset(graph):
    return oracle.sample_dataset(graph, ("1p", "2i", "2in", "2u", "up"), 10, 1, "entailment")


def _params(graph, mode="bounds", seed=0):
    config = ModelConfig(graph.num_entities, graph.num_relations, d=D, h=16, mode=mode)
    return ModelParams.initialize(config, seed)


def _head_params(graph, seed=0):
    """d = 32, so the head's hidden layers are 8 and 2 units wide; positive
    biases keep their ReLUs and the sigmoid away from their flat parts."""
    config = ModelConfig(graph.num_entities, graph.num_relations, d=32, h=16)
    params = ModelParams.initialize(config, seed)
    for name, value in (("H1b", 0.2), ("H2b", 0.2), ("H3b", 0.3)):
        params.arrays[name][:] = value
    return params


def _fit(params, dataset, **kwargs):
    return cardinality.fit(params, dataset, cardinality.features(params, dataset.samples),
                           **kwargs)


def _report(params, dataset):
    return cardinality.report(params, dataset, cardinality.features(params, dataset.samples))


def _loss(ctx, features, targets):
    """``fit``'s loss: the mean absolute relative error of the estimates."""
    errors = ad.absolute(cardinality.predict(ctx, features) - targets) / targets
    return ad.sum_all(errors) / len(targets)


def _with_sizes(dataset, sizes):
    """The dataset's queries with easy answers 0..k-1 for each size k."""
    return QueryDataset([QuerySample(s.instance, tuple(range(k)), ())
                         for s, k in zip(dataset.samples, sizes)], dataset.metadata)


class TestHead:
    @pytest.fixture(scope="class")
    def graph(self):
        return kg.generate_synthetic(60, 4, 3.0, 0.1, 0.1, seed=4)

    @pytest.fixture(scope="class")
    def dataset(self, graph):
        return oracle.sample_dataset(graph, ("1p", "2i", "2in", "2u", "up"), 3, 0, "entailment")

    @pytest.mark.parametrize("fitted", [False, True], ids=["seeded", "fitted"])
    def test_forward_and_prediction_equal_the_reference_bit_for_bit(self, graph, dataset,
                                                                    fitted):
        params = _head_params(graph)
        if fitted:
            params = _fit(params, dataset, epochs=5, lr=1e-2)
        features = cardinality.features(params, dataset.samples)
        want = reference_cardinality_head(features, params)
        assert np.all((want > 0) & (want < cardinality.SCALE))
        got = cardinality.predict(ForwardContext(params), features)
        assert type(got) is np.ndarray and got.shape == (len(dataset.samples),)
        np.testing.assert_array_equal(got, want)
        for sample in dataset.samples:  # one row: BLAS may sum it unlike a batch row
            qe = model.embed_instance(sample.instance, params, "dm")
            h = logic.entropy_slots(qe.branches[0])[None]
            np.testing.assert_array_equal(cardinality.predict(ForwardContext(params), h),
                                          reference_cardinality_head(h, params))

    def test_first_epoch_tape_value_equals_the_reference(self, graph, dataset, monkeypatch):
        params = _head_params(graph)
        values = []
        original = cardinality.predict

        def capturing(ctx, h):
            out = original(ctx, h)
            if ctx.train:
                values.append(out.value.copy())
            return out

        monkeypatch.setattr(cardinality, "predict", capturing)
        _fit(params, dataset, epochs=1)
        (tape_head,) = values
        train_idx, _ = cardinality.split(dataset)
        features = cardinality.features(params, dataset.samples)[train_idx]
        np.testing.assert_array_equal(tape_head, reference_cardinality_head(features, params))

    def test_fit_moves_every_head_parameter_and_nothing_else(self, graph, dataset):
        params = _head_params(graph)
        before = params.copy()
        fitted = _fit(params, dataset, epochs=3, lr=1e-2)
        for name, array in fitted.arrays.items():
            np.testing.assert_array_equal(params.arrays[name], before.arrays[name])
            moved = not np.array_equal(array, before.arrays[name])
            assert moved == (name in HEAD_PARAMS), name

    def test_fit_loss_gradient_by_finite_differences(self, graph, dataset):
        params = _head_params(graph)
        features = cardinality.features(params, dataset.samples)
        targets = np.random.default_rng(3).uniform(1.0, 50.0, len(features))
        ctx = ForwardContext(params, train=True)
        ad.backward(_loss(ctx, features, targets))
        assert set(ctx._dense) == set(HEAD_PARAMS)
        for name in HEAD_PARAMS:
            def loss(value, name=name):
                trial = params.copy()
                trial.arrays[name] = value
                return float(_loss(ForwardContext(trial), features, targets))

            grad = ctx._dense[name].grad
            assert np.any(grad != 0), name
            np.testing.assert_allclose(grad, numeric_grad(loss, params.arrays[name]),
                                       rtol=RTOL, atol=ATOL, err_msg=name)


class TestReport:
    def test_features_match_one_query_embedding(self, graph, dataset):
        params = _params(graph)
        got = cardinality.features(params, dataset.samples)
        for row, sample in zip(got, dataset.samples):
            single = model.embed_instance(sample.instance, params, "dm").branches[0]
            np.testing.assert_allclose(row, logic.entropy_slots(single),
                                       rtol=1e-12, atol=0)

    def test_halves_match_one_query_reference(self, graph, dataset):
        params = _params(graph)
        samples = list(dataset.samples)
        train_idx, test_idx = cardinality.split(dataset)
        # a zero-answer test query is skipped by the MAE and the baselines
        empty = test_idx[0]
        samples[empty] = QuerySample(samples[empty].instance, (), ())
        data = QueryDataset(samples, dataset.metadata)
        result = _report(params, data)

        kept = [i for i in test_idx if i != empty]
        sizes = np.array([len(s.answers) for s in samples], dtype=np.float64)

        def one_query_errors(indices):
            errors = []
            for i in indices:
                (single,) = model.embed_instance(samples[i].instance, params, "dm").branches
                size = reference_cardinality_head(logic.entropy_slots(single)[None], params)[0]
                errors.append(abs(size - sizes[i]) / sizes[i])
            return errors

        errors = one_query_errors(kept)
        easy = np.array([max(1, len(samples[i].easy)) for i in kept])
        constant = result["constant"]
        assert constant in sizes[train_idx]
        assert result["train_count"] == len(train_idx)
        assert result["train_mae_pct"] == pytest.approx(
            100 * np.mean(one_query_errors(train_idx)), rel=1e-12)
        assert result["test_count"] == len(kept)
        assert result["test_mae_pct"] == pytest.approx(100 * np.mean(errors), rel=1e-12)
        assert result["constant_mae_pct"] == pytest.approx(
            100 * np.mean(np.abs(constant - sizes[kept]) / sizes[kept]), rel=1e-12)
        assert result["easy_mae_pct"] == pytest.approx(
            100 * np.mean(np.abs(easy - sizes[kept]) / sizes[kept]), rel=1e-12)
        by_structure = {}
        for i, error in zip(kept, errors):
            by_structure.setdefault(samples[i].instance.structure, []).append(error)
        assert result["per_structure"].keys() == by_structure.keys()
        for structure, (mae, count) in result["per_structure"].items():
            assert mae == pytest.approx(100 * np.mean(by_structure[structure]), rel=1e-12)
            assert count == len(by_structure[structure])

    def test_fitted_report_skips_the_zero_answer_test_query(self, graph, dataset):
        samples = list(dataset.samples)
        empty = cardinality.split(dataset)[1][0]
        samples[empty] = QuerySample(samples[empty].instance, (), ())
        data = QueryDataset(samples, dataset.metadata)
        result = _report(_fit(_params(graph), data, epochs=2, lr=1e-2), data)
        assert result["train_count"] == (len(samples) + 1) // 2
        assert result["test_count"] == len(samples) // 2 - 1

    @pytest.mark.parametrize("seed", range(4))
    def test_best_constant_is_the_brute_force_minimum(self, graph, dataset, seed):
        """The mean relative error of a constant is convex and piecewise linear
        with its kinks at the sizes, so the least over the distinct train sizes
        is the least over every constant."""
        sizes = np.random.default_rng(seed).geometric(0.3, len(dataset.samples)).clip(1, 23)
        data = _with_sizes(dataset, sizes)
        result = _report(_params(graph), data)
        train_idx, test_idx = cardinality.split(data)
        train, test = sizes[train_idx].astype(float), sizes[test_idx].astype(float)

        def mean_error(c, y):
            return float(np.mean(np.abs(c - y) / y))

        best = min(mean_error(c, train) for c in np.unique(train))
        assert mean_error(result["constant"], train) == pytest.approx(best, rel=1e-12)
        assert result["constant"] in train
        assert result["constant_mae_pct"] == pytest.approx(
            100 * mean_error(result["constant"], test), rel=1e-12)

    def test_no_test_query_is_a_data_error(self, graph, dataset):
        params = _params(graph)
        with pytest.raises(DataError, match="no test-half query"):
            _report(params, QueryDataset([], dataset.metadata))
        no_answers = [QuerySample(s.instance, (), ()) for s in dataset.samples]
        for call in (_report, _fit):
            with pytest.raises(DataError, match="no test-half query"):
                call(params, QueryDataset(no_answers, dataset.metadata))

    @pytest.mark.parametrize("call", [
        lambda params, data: cardinality.features(params, data.samples),
        lambda params, data: _fit(params, data, epochs=1),
        lambda params, data: _report(params, data),
    ], ids=["features", "fit", "report"])
    def test_point_mode_is_a_data_error(self, graph, dataset, call):
        with pytest.raises(DataError, match="^entropy and width statistics require bounds mode$"):
            call(_params(graph, "point"), dataset)
