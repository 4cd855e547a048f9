import tracemalloc

import numpy as np
import pytest

from skqe import evaluation, kg, logic, model, oracle, training
from skqe.errors import DataError, NumericError
from skqe.model import ModelConfig, ModelParams
from skqe.oracle import QueryDataset, QuerySample

D = 16


def one_block_scores(branch_values, entity_matrix):
    """The unblocked formula: the whole (B, N, 2d) difference at once."""
    best = None
    for values in branch_values:
        scores = 1.0 - np.mean(np.abs(entity_matrix[None, :, :] - values[:, None, :]), axis=2)
        best = scores if best is None else np.maximum(best, scores)
    return best


@pytest.fixture(scope="module")
def graph():
    return kg.generate_synthetic(23, 3, 3.0, 0.1, 0.1, seed=2)


@pytest.fixture(scope="module")
def dataset(graph):
    return oracle.sample_dataset(graph, ("1p", "2i", "2in", "2u", "up"), 10, 1, "entailment")


def _params(graph, mode="bounds", seed=0):
    config = ModelConfig(graph.num_entities, graph.num_relations, d=D, h=16, mode=mode)
    return ModelParams.initialize(config, seed)


class TestBlockedScorer:
    @pytest.mark.parametrize("mode", ["bounds", "point"])
    @pytest.mark.parametrize("structure,branches", [("1p", 1), ("2u", 2)])
    def test_ragged_tiles_match_one_block_byte_for_byte(self, graph, dataset, mode,
                                                        structure, branches, monkeypatch):
        params = _params(graph, mode)
        entity_matrix = model.realize_all_entities(params)
        samples = dataset.by_structure()[structure]
        ((_, branch_values),) = evaluation._embed_structure_batches(params, samples, "dnf")
        assert len(branch_values) == branches and branch_values[0].shape[0] == 10
        width = entity_matrix.shape[1]
        # 20 (row, entity) pairs per tile: 4-row by 5-entity tiles, so the 10
        # rows split 4 + 4 + 2 and the 23 entities 5 + 5 + 5 + 5 + 3.
        monkeypatch.setattr(evaluation, "SCORE_BLOCK_BYTES", 20 * width * 8)
        got = evaluation._batch_scores(branch_values, entity_matrix)
        want = one_block_scores(branch_values, entity_matrix)
        assert got.shape == (10, graph.num_entities)
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("budget", [1, 3 * 2 * D * 8, evaluation.SCORE_BLOCK_BYTES])
    def test_any_budget_matches_one_block(self, budget, monkeypatch):
        rng = np.random.default_rng(3)
        entity_matrix = rng.uniform(size=(17, 2 * D))
        branch_values = [rng.uniform(size=(7, 2 * D)) for _ in range(3)]
        monkeypatch.setattr(evaluation, "SCORE_BLOCK_BYTES", budget)
        got = evaluation._batch_scores(branch_values, entity_matrix)
        assert got.tobytes() == one_block_scores(branch_values, entity_matrix).tobytes()

    def test_nan_query_row_stays_nan(self, monkeypatch):
        rng = np.random.default_rng(4)
        entity_matrix = rng.uniform(size=(11, 2 * D))
        branch_values = [rng.uniform(size=(6, 2 * D)) for _ in range(2)]
        branch_values[1][2, 5] = np.nan
        monkeypatch.setattr(evaluation, "SCORE_BLOCK_BYTES", 6 * 2 * D * 8)
        got = evaluation._batch_scores(branch_values, entity_matrix)
        assert np.isnan(got[2]).all()
        assert np.isfinite(np.delete(got, 2, axis=0)).all()
        np.testing.assert_array_equal(got, one_block_scores(branch_values, entity_matrix))

    def test_memory_stays_bounded(self):
        rng = np.random.default_rng(5)
        entity_matrix = rng.uniform(size=(20_000, 64))
        branch_values = [rng.uniform(size=(32, 64))]
        output_bytes = 32 * 20_000 * 8
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            scores = evaluation._batch_scores(branch_values, entity_matrix)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert scores.shape == (32, 20_000)
        # the one-block formula would need two 32 x 20,000 x 64 temporaries (~650 MB)
        assert peak < output_bytes + 4 * 2**20


class TestRanking:
    def test_ties_count_against_the_target(self):
        scores = np.array([0.5, 0.9, 0.5, 0.5, 0.2, 0.9])
        # competitors of entity 0: 1 and 5 score higher, 2 ties; 3 is filtered
        assert evaluation.rank_answers(scores, {0, 3}, [0]) == [4]
        # the target never counts against itself, filtered or not
        assert evaluation.rank_answers(scores, set(), [0]) == [5]
        assert evaluation.rank_answers(scores, {1, 3, 5}, [0, 2]) == [2, 2]

    def test_identical_entity_rows_tie_in_evaluate_ranking(self, graph):
        dataset = oracle.sample_dataset(graph, ("1p",), 5, 2, "generalization")
        sample = dataset.samples[0]
        target = sample.hard[0]
        known = set(sample.easy) | set(sample.hard)
        twin = next(e for e in range(graph.num_entities) if e not in known)
        params = _params(graph)
        params.arrays["entity"][twin] = params.arrays["entity"][target]
        report = evaluation.evaluate_ranking(QueryDataset([sample], dataset.metadata), params)

        qe = model.embed_instance(sample.instance, params, "dnf")
        scores = model.score_entities(qe, params)
        assert scores[twin] == scores[target]
        allowed = np.ones(graph.num_entities, dtype=bool)
        allowed[sorted(known)] = False
        want = 1 + int(np.count_nonzero(allowed & (scores >= scores[target])))
        assert report.ranks["1p"][0] == want
        assert want >= 2  # the twin is counted against the target

    def test_empty_dataset_is_a_data_error(self, graph):
        with pytest.raises(DataError, match="no queries"):
            evaluation.evaluate_ranking(QueryDataset([], {"mode": "generalization"}),
                                        _params(graph))


    @pytest.mark.parametrize("name,row", [("F3b", slice(None)), ("entity", 3)],
                             ids=["query-row", "entity-row"])
    def test_non_finite_embedding_is_a_numeric_error(self, graph, name, row):
        # NaN scores compare false, so every target would rank first
        dataset = oracle.sample_dataset(graph, ("1p", "2i"), 5, 2, "generalization")
        params = _params(graph)
        params.arrays[name][row] = np.nan
        with pytest.raises(NumericError, match="non-finite"):
            evaluation.evaluate_ranking(dataset, params)


class TestCorrelation:
    """``rank_with_average_ties``, ``spearman`` and ``pearson`` against
    ``scipy.stats``, the test-only reference."""

    SERIES = {
        "continuous": lambda rng: (rng.normal(size=40), rng.normal(size=40)),
        "ties": lambda rng: (rng.integers(0, 5, 60).astype(float),
                             rng.integers(0, 3, 60).astype(float)),
        "ties-one-side": lambda rng: (rng.normal(size=30), rng.integers(1, 4, 30).astype(float)),
        "two": lambda rng: (np.array([2.0, 1.0]), np.array([5.0, 7.0])),
    }

    @pytest.mark.parametrize("series", list(SERIES))
    def test_matches_scipy(self, series):
        stats = pytest.importorskip("scipy.stats")
        x, y = self.SERIES[series](np.random.default_rng(9))
        for values in (x, y):
            np.testing.assert_array_equal(evaluation.rank_with_average_ties(values),
                                          stats.rankdata(values, method="average"))
        assert evaluation.spearman(x, y) == pytest.approx(stats.spearmanr(x, y).statistic,
                                                          rel=1e-12, abs=1e-15)
        assert evaluation.pearson(x, y) == pytest.approx(stats.pearsonr(x, y).statistic,
                                                         rel=1e-12, abs=1e-15)

    def test_constant_series_correlates_zero(self):
        x, y = np.ones(6), np.arange(6.0)
        assert evaluation.spearman(x, y) == 0.0 and evaluation.pearson(x, y) == 0.0
        np.testing.assert_array_equal(evaluation.rank_with_average_ties(x), np.full(6, 3.5))

    def test_degenerate_flag(self, graph, dataset):
        stats = pytest.importorskip("scipy.stats")
        # every 1p query gets one answer, so its answer sizes have no variance
        samples = [QuerySample(s.instance, (0,), ()) if s.instance.structure == "1p" else s
                   for s in dataset.samples]
        data = QueryDataset(samples, dataset.metadata)
        params = _params(graph)
        report = evaluation.uncertainty_correlation(data, params, "entropy")
        assert report.per_structure["1p"] == evaluation.CorrelationStats(
            0.0, 0.0, len(data.by_structure()["1p"]), True)
        values, sizes, structures = evaluation.query_statistics(data, params, "entropy")
        mask = np.array([s == "2i" for s in structures])
        assert np.std(sizes[mask]) > 0
        got = report.per_structure["2i"]
        assert not got.degenerate and got.count == int(mask.sum())
        assert got.spearman == pytest.approx(
            stats.spearmanr(values[mask], sizes[mask]).statistic, rel=1e-12, abs=1e-15)
        assert got.pearson == pytest.approx(
            stats.pearsonr(values[mask], sizes[mask]).statistic, rel=1e-12, abs=1e-15)


class TestCardinality:
    def test_features_match_one_query_embedding(self, graph, dataset):
        params = _params(graph)
        got = evaluation.cardinality_features(params, dataset.samples)
        for row, sample in zip(got, dataset.samples):
            single = model.embed_instance(sample.instance, params, "dm").single
            np.testing.assert_allclose(row, logic.entropy_slots(single),
                                       rtol=1e-12, atol=0)

    def test_test_half_matches_one_query_reference(self, graph, dataset):
        params = _params(graph)
        samples = list(dataset.samples)
        train_idx, test_idx = training.split_by_hash(dataset)
        # a zero-answer test query is skipped by the MAE and the baseline
        empty = test_idx[0]
        samples[empty] = QuerySample(samples[empty].instance, (), ())
        data = QueryDataset(samples, dataset.metadata)
        result = evaluation.cardinality_test_half(data, params)

        kept = [i for i in test_idx if i != empty]
        sizes = np.array([len(s.answers) for s in samples], dtype=np.float64)
        errors = [abs(model.predict_cardinality(
            model.embed_instance(samples[i].instance, params, "dm"), params) - sizes[i]) / sizes[i]
            for i in kept]
        mean_size = np.mean(sizes[train_idx])
        baseline = 100 * np.mean(np.abs(mean_size - sizes[kept]) / sizes[kept])
        assert result["test_count"] == len(kept)
        assert result["test_mae"] == pytest.approx(100 * np.mean(errors), rel=1e-12)
        assert result["baseline_mae"] == pytest.approx(baseline, rel=1e-12)
        per_structure = evaluation.cardinality_mae(data, params, test_idx)
        assert per_structure == result["per_structure"]
        assert sum(count for _, count in per_structure.values()) == len(kept)

    def test_no_test_query_is_a_data_error(self, graph, dataset):
        params = _params(graph)
        with pytest.raises(DataError, match="no test-half query"):
            evaluation.cardinality_test_half(QueryDataset([], dataset.metadata), params)
        no_answers = [QuerySample(s.instance, (), ()) for s in dataset.samples]
        with pytest.raises(DataError, match="no test-half query"):
            evaluation.cardinality_test_half(QueryDataset(no_answers, dataset.metadata), params)

    def test_point_mode_is_a_data_error(self, graph, dataset):
        with pytest.raises(DataError, match="bounds mode"):
            evaluation.cardinality_features(_params(graph, "point"), dataset.samples)
