import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from skqe import evaluation, kg, logic, model, oracle
from skqe.algebra import STRUCTURE_NAMES
from skqe.errors import DataError, NumericError
from skqe.model import ModelConfig, ModelParams
from skqe.oracle import QueryDataset, QuerySample

from conftest import reference_rank

D = 16


def one_block_scores(branch_values, entity_matrix):
    """The unblocked exact formula: the whole (B, N, 2d) difference at once."""
    best = None
    for values in branch_values:
        scores = 1.0 - np.mean(np.abs(entity_matrix[None, :, :] - values[:, None, :]), axis=2)
        best = scores if best is None else np.maximum(best, scores)
    return best


def assert_within_screen_tolerance(got, branch_values, entity_matrix):
    """The float32 screen lies within ``screen_tolerance`` of the exact
    float64 formula on the float64 inputs."""
    magnitude = max(1.0, *(float(np.max(np.abs(a))) for a in (entity_matrix, *branch_values)))
    tolerance = evaluation.screen_tolerance(entity_matrix.shape[1], magnitude)
    want = one_block_scores([np.asarray(v, dtype=np.float64) for v in branch_values],
                            np.asarray(entity_matrix, dtype=np.float64))
    assert got.dtype == np.float32 and got.shape == want.shape
    np.testing.assert_allclose(got, want, rtol=0, atol=tolerance)


@pytest.fixture(scope="module")
def graph():
    return kg.generate_synthetic(23, 3, 3.0, 0.1, 0.1, seed=2)


@pytest.fixture(scope="module")
def dataset(graph):
    return oracle.sample_dataset(graph, ("1p", "2i", "2in", "2u", "up"), 10, 1, "train")


def _params(graph, mode="bounds", seed=0):
    config = ModelConfig(graph.num_entities, graph.num_relations, d=D, h=16, mode=mode)
    return ModelParams.initialize(config, seed)


class TestBlockedScorer:
    """``_batch_scores`` is a float32 screen, not an exact scorer: every score
    must lie within ``screen_tolerance`` of the one-block formula, whatever
    the tiling. Exact ranks come from the recheck (``TestNearTieRanks``)."""

    @pytest.mark.parametrize("mode", ["bounds", "point"])
    @pytest.mark.parametrize("structure,branches", [("1p", 1), ("2u", 2)])
    def test_ragged_tiles_stay_within_tolerance_of_one_block(self, graph, dataset, mode,
                                                              structure, branches, monkeypatch):
        params = _params(graph, mode)
        entity_matrix = model.realize_all_entities(params)
        samples = dataset.by_structure()[structure]
        ((_, branch_values),) = evaluation._embed_structure_batches(params, samples, "dnf",
                                                                    entity_matrix)
        assert len(branch_values) == branches and branch_values[0].shape[0] == 10
        width = entity_matrix.shape[1]
        # 40 float32 (row, entity) pairs in each of the two buffers: 8-row by
        # 5-entity tiles, so the 10 rows split 8 + 2 and the 23 entities
        # 5 + 5 + 5 + 5 + 3.
        monkeypatch.setattr(evaluation, "SCORE_BLOCK_BYTES", 2 * 40 * width * 4)
        got = evaluation._batch_scores(branch_values, entity_matrix.astype(np.float32))
        assert got.shape == (10, graph.num_entities)
        assert_within_screen_tolerance(got, branch_values, entity_matrix)

    @pytest.mark.parametrize("scale", [1.0, 8.0])
    @pytest.mark.parametrize("branches", [1, 2, 3])
    @pytest.mark.parametrize("budget", [1, 2 * 2 * D * 4 - 1, 2 * 40 * 2 * D * 4,
                                        evaluation.SCORE_BLOCK_BYTES],
                             ids=["one-byte", "below-one-row", "ragged", "default"])
    def test_any_budget_stays_within_tolerance_of_one_block(self, budget, branches, scale,
                                                            monkeypatch):
        # "ragged": 8-row by 5-entity tiles, so the 19 rows split 8 + 8 + 3 and
        # the 17 entities 5 + 5 + 5 + 2; the last tile is partial both ways.
        # The two smaller budgets fall back to one (row, entity) pair per tile.
        # scale 8 puts values in [-8, 8), so the tolerance grows with them.
        rng = np.random.default_rng(3)
        entity_matrix = scale * rng.uniform(-1.0 if scale > 1 else 0.0, 1.0, size=(17, 2 * D))
        branch_values = [scale * rng.uniform(-1.0 if scale > 1 else 0.0, 1.0, size=(19, 2 * D))
                         for _ in range(branches)]
        monkeypatch.setattr(evaluation, "SCORE_BLOCK_BYTES", budget)
        got = evaluation._batch_scores(branch_values, entity_matrix.astype(np.float32))
        assert_within_screen_tolerance(got, branch_values, entity_matrix)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), width=st.sampled_from([2, 4, 64]),
           magnitude=st.sampled_from([1.0, 1e3]))
    def test_min_form_stays_within_tolerance(self, data, width, magnitude):
        # |E - v| = E + v - 2 min(E, v): a query row equal to an entity row
        # cancels its sums completely, the min form's worst case
        values = st.floats(-magnitude, magnitude, allow_nan=False, allow_infinity=False)
        entity_matrix = data.draw(hnp.arrays(np.float64, (5, width), elements=values))
        queries = data.draw(hnp.arrays(np.float64, (4, width), elements=values))
        equal = data.draw(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 4)),
                                   max_size=4))
        for row, entity in equal:
            queries[row] = entity_matrix[entity]
        got = evaluation._batch_scores([queries], entity_matrix.astype(np.float32))
        assert_within_screen_tolerance(got, [queries], entity_matrix)

    def test_nan_query_row_stays_nan(self, monkeypatch):
        rng = np.random.default_rng(4)
        entity_matrix = rng.uniform(size=(11, 2 * D))
        branch_values = [rng.uniform(size=(6, 2 * D)) for _ in range(2)]
        branch_values[1][2, 5] = np.nan
        monkeypatch.setattr(evaluation, "SCORE_BLOCK_BYTES", 6 * 2 * D * 8)
        got = evaluation._batch_scores(branch_values, entity_matrix.astype(np.float32))
        assert np.isnan(got[2]).all()
        assert np.isfinite(np.delete(got, 2, axis=0)).all()
        tolerance = evaluation.screen_tolerance(2 * D, 1.0)
        np.testing.assert_allclose(got, one_block_scores(branch_values, entity_matrix),
                                   rtol=0, atol=tolerance)

    def test_tolerance_is_infinite_where_float32_could_overflow(self):
        assert evaluation.screen_tolerance(64, 1.0) == 4 * 65 * 2.0 ** -24
        assert evaluation.screen_tolerance(64, 1e30) < np.inf
        assert evaluation.screen_tolerance(64, 1e37) == np.inf

    @pytest.mark.parametrize("budget", [evaluation.SCORE_BLOCK_BYTES, 1 << 18])
    def test_memory_stays_bounded(self, budget, monkeypatch):
        rng = np.random.default_rng(5)
        entity_matrix = rng.uniform(size=(20_000, 64)).astype(np.float32)
        branch_values = [rng.uniform(size=(32, 64)) for _ in range(2)]
        output_bytes = 32 * 20_000 * 4
        monkeypatch.setattr(evaluation, "SCORE_BLOCK_BYTES", budget)
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            scores = evaluation._batch_scores(branch_values, entity_matrix)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert scores.shape == (32, 20_000) and scores.dtype == np.float32
        # The one-block formula would need two 32 x 20,000 x 64 temporaries
        # (~650 MB). The kernel holds the query copy and the min block, half
        # the budget each, a (rows, cols) distance tile and the float64 sum
        # of each entity's slots; on a small tile numpy's ufunc iterator may
        # also buffer up to getbufsize() elements per operand.
        entity_sums = 20_000 * 8
        slack = 4 * np.getbufsize() * 8
        assert peak <= output_bytes + budget + entity_sums + slack


def _reference_ranks(exact, filters, targets):
    """``reference_rank`` of every target of a batch, row by row."""
    return [reference_rank(exact[row], filters[row], t)
            for row in range(len(targets)) for t in targets[row]]


def _near_tie_batch(seed, rows=6, count=400, tolerance=1e-5):
    """Exact (rows, count) scores on a coarse grid, so many tie exactly, with
    the last half of each row a few float64 ulps from the first half, and a
    float32 screen that moves each by up to ``tolerance``: near ties in every
    row."""
    rng = np.random.default_rng(seed)
    exact = rng.integers(0, 40, size=(rows, count)) / 40.0
    half = count // 2
    exact[:, count - half:] = exact[:, :half] + (rng.integers(-2, 3, size=(rows, half))
                                                 * np.spacing(exact[:, :half]))
    screen = (exact + rng.uniform(-tolerance, tolerance, size=exact.shape)).astype(np.float32)
    screen[:, ::7] = exact[:, ::7]  # some screens land exactly on the exact score
    return rng, exact, screen


class _Rescorer:
    """``rank_answers``' exact rescorer on a table of exact scores, keeping
    the (row, id) pairs it was asked for."""

    def __init__(self, exact):
        self.exact, self.asked = exact, []

    def __call__(self, rows, ids):
        self.asked.append((np.array(rows), np.array(ids)))
        return self.exact[rows, ids]


class TestRanking:
    """The batched ``rank_answers`` against ``reference_rank``, one target at
    a time."""

    def test_ties_count_against_the_target(self):
        scores = np.array([[0.5, 0.9, 0.5, 0.5, 0.2, 0.9]])
        # competitors of entity 0: 1 and 5 score higher, 2 ties; 3 is filtered
        assert evaluation.rank_answers(scores, [{0, 3}], [[0]]) == [4]
        # the target never counts against itself, filtered or not
        assert evaluation.rank_answers(scores, [set()], [[0]]) == [5]
        assert evaluation.rank_answers(scores, [{1, 3, 5}], [[0, 2]]) == [2, 2]
        # the reference agrees on the same cases
        assert _reference_ranks(np.repeat(scores, 3, axis=0), [{0, 3}, set(), {1, 3, 5}],
                                [[0], [0], [0, 2]]) == [4, 5, 2, 2]

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_screen_with_rescorer_ranks_as_exact_scores(self, seed):
        # near ties in several rows of one batch
        tolerance = 1e-5
        rng, exact, screen = _near_tie_batch(seed, tolerance=tolerance)
        filters = [set(rng.choice(400, size=30, replace=False).tolist()) for _ in range(6)]
        targets = [list(rng.choice(400, size=5, replace=False)) for _ in range(6)]
        rescore = _Rescorer(exact)
        got = evaluation.rank_answers(screen, filters, targets, rescore, tolerance)
        assert got == _reference_ranks(exact, filters, targets)
        # one call scores every target exactly, row by row
        rows, ids = rescore.asked[0]
        np.testing.assert_array_equal(rows, np.repeat(np.arange(6), 5))
        np.testing.assert_array_equal(ids, np.concatenate(targets))
        ties = np.concatenate([rows for rows, _ in rescore.asked[1:]])
        assert len(set(ties.tolist())) > 1  # near ties were rescored in several rows

    def test_chunks_split_rows_mid_batch(self, monkeypatch):
        # 90 bytes per target row of 5 entities: a chunk of 18 bytes per entity
        # holds one target, so every row's targets are split across chunks
        tolerance = 1e-5
        rng, exact, screen = _near_tie_batch(3, rows=4, count=5, tolerance=tolerance)
        filters = [{0}, set(), {1, 2}, {4}]
        targets = [[0, 1, 2], [3], [0, 3, 4], [1, 4]]
        monkeypatch.setattr(evaluation, "SCORE_BLOCK_BYTES",
                            5 * evaluation.RANK_BYTES_PER_ENTITY)
        got = evaluation.rank_answers(screen, filters, targets, _Rescorer(exact), tolerance)
        assert got == _reference_ranks(exact, filters, targets)
        monkeypatch.setattr(evaluation, "SCORE_BLOCK_BYTES",
                            2 * 5 * evaluation.RANK_BYTES_PER_ENTITY)  # two targets a chunk
        assert evaluation.rank_answers(screen, filters, targets, _Rescorer(exact),
                                       tolerance) == got

    def test_near_ties_are_rescored_in_slices(self, monkeypatch):
        # a tolerance wider than every gap makes each unfiltered entity a near tie
        rng, exact, screen = _near_tie_batch(4, rows=3, count=50)
        filters = [{1, 2}, set(), {7}]
        targets = [[0, 5], [9], [7, 8]]
        monkeypatch.setattr(evaluation, "SCORE_BLOCK_BYTES",
                            7 * evaluation.RANK_BYTES_PER_NEAR_TIE)
        rescore = _Rescorer(exact)
        got = evaluation.rank_answers(screen, filters, targets, rescore, 2.0)
        assert got == _reference_ranks(exact, filters, targets)
        assert max(len(ids) for _, ids in rescore.asked[1:]) == 7

    def test_a_target_outside_its_filter_never_counts_against_itself(self):
        rng, exact, screen = _near_tie_batch(5, rows=2, count=60)
        filters = [{3, 4}, set()]  # neither row filters its targets
        targets = [[10, 11, 3], [20]]
        got = evaluation.rank_answers(screen, filters, targets, _Rescorer(exact), 1e-5)
        assert got == _reference_ranks(exact, filters, targets)
        assert evaluation.rank_answers(exact, filters, targets) == got

    def test_many_targets_per_query(self):
        # a train set: every answer is a target and filters the others
        rng, exact, screen = _near_tie_batch(6, rows=3, count=400)
        targets = [rng.choice(400, size=size, replace=False).tolist() for size in (150, 1, 40)]
        filters = [set(t) for t in targets]
        got = evaluation.rank_answers(screen, filters, targets, _Rescorer(exact), 1e-5)
        assert got == _reference_ranks(exact, filters, targets)
        assert evaluation.rank_answers(exact, filters, targets) == got

    def test_thresholds_round_up_to_the_screen_dtype(self):
        rng = np.random.default_rng(8)
        thresholds = np.concatenate([rng.uniform(-2, 2, 500), [0.5, -0.0, np.inf, -np.inf]])
        got = evaluation._at_or_above(thresholds, np.float32)
        assert got.dtype == np.float32
        # every float32 next to a threshold compares with the rounded one as
        # with the float64 one
        screen = np.concatenate([got, np.nextafter(got, -np.inf), np.nextafter(got, np.inf)])
        for rounded, threshold in zip(got, thresholds):
            np.testing.assert_array_equal(screen >= rounded, screen >= threshold)

    def test_hard_answers_rank_as_the_reference(self, graph):
        dataset = oracle.sample_dataset(graph, ("1p", "2in"), 5, 2, "generalization")
        params = _params(graph)
        for sample in dataset.samples:
            qe = model.embed_instance(sample.instance, params)
            scores = model.score_entities(qe, params)
            known = set(sample.easy) | set(sample.hard)
            assert evaluation.rank_hard_answers(qe, sample, params) == \
                [reference_rank(scores, known, t) for t in sample.hard]

    def test_memory_stays_bounded(self):
        # 256 queries of 100 targets each against 2,000 entities
        rng = np.random.default_rng(7)
        entity_matrix = rng.uniform(size=(2_000, 64))
        branch_values = [rng.uniform(size=(256, 64))]
        targets = [rng.choice(2_000, size=100, replace=False).tolist() for _ in range(256)]
        filters = [set(t) for t in targets]
        screen_entities = entity_matrix.astype(np.float32)
        tolerance = evaluation.screen_tolerance(64, 1.0)

        def rescore(rows, ids):
            return evaluation._pair_scores(branch_values, entity_matrix, rows, ids)

        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            screen = evaluation._batch_scores(branch_values, screen_entities)
            ranks = evaluation.rank_answers(screen, filters, targets, rescore, tolerance)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(ranks) == 25_600
        # The (B, N) screen, one budget of working set, and per target its
        # share of the batch's index, score and threshold arrays (about 48
        # bytes) and of the returned list (an int object and a slot, 36);
        # numpy's ufunc iterator may buffer up to getbufsize() elements per
        # operand on a small tile.
        per_target = 48 + 36
        slack = 4 * np.getbufsize() * 8
        assert peak <= screen.nbytes + evaluation.SCORE_BLOCK_BYTES + 25_600 * per_target + slack

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

    @pytest.mark.parametrize("workers", [2, 0])
    def test_workers_other_than_one_is_a_data_error(self, graph, workers):
        dataset = oracle.sample_dataset(graph, ("1p",), 2, 2, "generalization")
        assert evaluation.evaluate_ranking(dataset, _params(graph), workers=1).counts
        with pytest.raises(DataError, match=f"workers must be 1, got {workers}"):
            evaluation.evaluate_ranking(dataset, _params(graph), workers=workers)


    @pytest.mark.parametrize("name,row", [("F3b", slice(None)), ("entity", 3)],
                             ids=["query-row", "entity-row"])
    def test_non_finite_embedding_is_a_numeric_error(self, graph, name, row):
        # NaN scores compare false, so every target would rank first
        dataset = oracle.sample_dataset(graph, ("1p", "2i"), 5, 2, "generalization")
        params = _params(graph)
        params.arrays[name][row] = np.nan
        with pytest.raises(NumericError, match="non-finite"):
            evaluation.evaluate_ranking(dataset, params)


class TestRanksAgainstOneQueryReference:
    """Every rank of ``evaluate_ranking`` equals ``reference_rank`` of its
    target on ``model.score_entities``, one query at a time. At d=16 and 300 entities the
    default budget gives 8-row by 256-entity tiles, so each 12-query batch
    splits 8 + 4 rows and the entities 256 + 44."""

    @pytest.fixture(scope="class")
    def big_graph(self):
        return kg.generate_synthetic(300, 6, 3.0, 0.1, 0.1, seed=3)

    @pytest.fixture(scope="class")
    def datasets(self, big_graph):
        return {
            "generalization": oracle.sample_dataset(big_graph, STRUCTURE_NAMES, 12, 1,
                                                    "generalization"),
            "train": oracle.sample_dataset(big_graph, ("1p", "2i", "2in", "2u", "up"), 12,
                                                2, "train"),
        }

    @pytest.mark.parametrize("union_mode", ["dnf", "dm"])
    @pytest.mark.parametrize("mode", ["generalization", "train"])
    def test_ranks_equal_score_entities(self, big_graph, datasets, mode, union_mode):
        dataset = datasets[mode]
        params = _params(big_graph, seed=4)
        report = evaluation.evaluate_ranking(dataset, params, union_mode)
        by_structure = dataset.by_structure()
        assert report.ranks.keys() == by_structure.keys()
        for structure, samples in by_structure.items():
            want = []
            for sample in samples:
                qe = model.embed_instance(sample.instance, params, union_mode)
                scores = model.score_entities(qe, params)
                targets = sample.hard if mode == "generalization" else sample.easy
                known = set(sample.easy) | set(sample.hard)
                want.extend(reference_rank(scores, known, t) for t in targets)
            assert report.ranks[structure] == want, structure

    @pytest.mark.parametrize("mode", ["generalization", "train"])
    def test_dataset_without_a_mode_ranks_as_its_mode(self, big_graph, datasets, mode):
        params = _params(big_graph, seed=4)
        moded = evaluation.evaluate_ranking(datasets[mode], params)
        modeless = evaluation.evaluate_ranking(QueryDataset(datasets[mode].samples, {}), params)
        assert modeless.ranks == moded.ranks and modeless.rescored == moded.rescored


def _add_near_ties(params, dataset, seed):
    """Give the first target of each structure's first query five twins among
    that query's non-answers: one with the target's entity row, two 1 float32
    ulp from it in every slot and two 2 ulps from it, signs drawn per slot.
    Their exact scores tie the target's or differ by far less than the float32
    screen resolves."""
    rows = params.arrays["entity"]
    rng = np.random.default_rng(seed)
    taken = set()
    for samples in dataset.by_structure().values():
        sample = samples[0]
        target = (sample.hard or sample.easy)[0]
        taken.add(target)
        excluded = set(sample.easy) | set(sample.hard) | taken
        free = [e for e in range(rows.shape[0]) if e not in excluded]
        twins = rng.choice(free, size=5, replace=False)
        taken.update(twins.tolist())
        row = rows[target].copy()
        ulp = np.spacing(row.astype(np.float32)).astype(np.float64)
        for twin, ulps in zip(twins, (0, 1, 1, 2, 2)):
            rows[twin] = row + ulps * rng.choice([-1.0, 1.0], size=row.shape) * ulp


def _exact_reranks(dataset, params, union_mode):
    """Every query re-ranked alone against the whole table with
    ``model.score_entities`` and ``reference_rank``."""
    ranks = {}
    for structure, samples in dataset.by_structure().items():
        ranks[structure] = []
        for sample in samples:
            scores = model.score_entities(model.embed_instance(sample.instance, params,
                                                               union_mode), params)
            known = set(sample.easy) | set(sample.hard)
            ranks[structure].extend(reference_rank(scores, known, t)
                                    for t in sample.hard or sample.easy)
    return ranks


class TestNearTieRanks:
    """Entity rows equal to a target's, or 1-2 float32 ulps from it, which the
    float32 screen cannot separate from the target: the exact recheck must
    rank them as a full-table re-rank with exact scores does."""

    @pytest.fixture(scope="class")
    def big_graph(self):
        return kg.generate_synthetic(300, 6, 3.0, 0.1, 0.1, seed=3)

    @pytest.fixture(scope="class")
    def datasets(self, big_graph):
        return {
            "generalization": oracle.sample_dataset(big_graph, STRUCTURE_NAMES, 6, 5,
                                                    "generalization"),
            "train": oracle.sample_dataset(big_graph, ("1p", "2i", "2in", "2u", "up"), 6,
                                                6, "train"),
        }

    @pytest.mark.parametrize("union_mode", ["dnf", "dm"])
    @pytest.mark.parametrize("mode", ["bounds", "point"])
    @pytest.mark.parametrize("kind", ["generalization", "train"])
    def test_ranks_equal_exact_reranks(self, big_graph, datasets, kind, mode, union_mode):
        dataset = datasets[kind]
        params = _params(big_graph, mode, seed=7)
        _add_near_ties(params, dataset, seed=8)
        report = evaluation.evaluate_ranking(dataset, params, union_mode)
        assert report.ranks == _exact_reranks(dataset, params, union_mode)
        assert report.rescored > 0

    def test_a_zero_tolerance_misranks_them(self, big_graph, datasets, monkeypatch):
        # without the recheck band the screen alone decides the twins
        dataset = datasets["generalization"]
        params = _params(big_graph, seed=7)
        _add_near_ties(params, dataset, seed=8)
        monkeypatch.setattr(evaluation, "screen_tolerance", lambda width, magnitude: 0.0)
        report = evaluation.evaluate_ranking(dataset, params)
        assert report.ranks != _exact_reranks(dataset, params, "dnf")


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
        values, sizes, structures = evaluation.query_statistics(data, params, "entropy")
        report = evaluation.uncertainty_correlation((values, sizes, structures), "entropy")
        assert report.per_structure["1p"] == evaluation.CorrelationStats(
            0.0, 0.0, len(data.by_structure()["1p"]), True)
        mask = np.array([s == "2i" for s in structures])
        assert np.std(sizes[mask]) > 0
        got = report.per_structure["2i"]
        assert not got.degenerate and got.count == int(mask.sum())
        assert got.spearman == pytest.approx(
            stats.spearmanr(values[mask], sizes[mask]).statistic, rel=1e-12, abs=1e-15)
        assert got.pearson == pytest.approx(
            stats.pearsonr(values[mask], sizes[mask]).statistic, rel=1e-12, abs=1e-15)


class TestDeMorganStatistics:
    def test_point_mode_is_a_data_error(self, graph, dataset):
        with pytest.raises(DataError, match="^entropy and width statistics require bounds mode$"):
            evaluation.query_statistics(dataset, _params(graph, "point"), "width")

    @pytest.mark.parametrize("statistic", ["entropy", "width"])
    def test_statistics_match_one_query_embedding(self, graph, dataset, statistic):
        params = _params(graph)
        order = np.random.default_rng(0).permutation(len(dataset.samples))
        data = QueryDataset([dataset.samples[i] for i in order], dataset.metadata)
        values, sizes, structures = evaluation.query_statistics(data, params, statistic)
        grouped = [s for group in data.by_structure().values() for s in group]
        assert grouped != data.samples
        assert structures == [s.instance.structure for s in grouped]
        np.testing.assert_array_equal(sizes, [len(s.answers) for s in grouped])
        for value, sample in zip(values, grouped):
            single = model.embed_instance(sample.instance, params, "dm").branches[0]
            want = (np.sum(logic.entropy_slots(single)) if statistic == "entropy" else
                    np.sum(single[D:] - single[:D]))
            assert value == pytest.approx(want, rel=1e-12, abs=1e-12)
