import itertools
from collections import Counter

import numpy as np
import pytest

from skqe import algebra, autodiff as ad, cli, evaluation, kg, logic, model, oracle, training
from skqe.errors import DataError
from skqe.model import ForwardContext, ModelConfig, ModelParams

from conftest import reference_cardinality_head, reference_conjoin, reference_negate
from test_autodiff import ATOL, RTOL, check_gradients, numeric_grad

D = 16
KINDS = ("luk", "prod", "min")
# the references sum in another order, in Python floats
RTOL_LOGIC, ATOL_LOGIC = 1e-12, 1e-14


def _params(mode="bounds", kind="luk", attention=True, entities=60, seed=0):
    config = ModelConfig(entities, 4, d=D, h=16, mode=mode, kind=kind, attention=attention)
    return ModelParams.initialize(config, seed)


def _bounds_rows(rng, rows, d=D):
    lower = rng.uniform(0.0, 1.0, (rows, d))
    upper = lower + rng.uniform(0.0, 1.0, (rows, d)) * (1.0 - lower)
    return np.concatenate([lower, upper], axis=1)


@pytest.fixture(scope="module")
def graph():
    return kg.generate_synthetic(60, 4, 3.0, 0.1, 0.1, seed=4)


@pytest.fixture(scope="module")
def dataset(graph):
    return oracle.sample_dataset(graph, ("1p", "2i", "2in", "2u", "up"), 3, 0, "entailment")


class TestInferenceMatchesTraining:
    @pytest.mark.parametrize("mode,kind,attention,union", list(itertools.product(
        model.MODES, KINDS, (True, False), algebra.UNION_MODES)))
    def test_plain_arrays_equal_tape_values_bit_for_bit(self, mode, kind, attention, union):
        params = _params(mode, kind, attention)
        rng = np.random.default_rng(1)
        for structure in algebra.STRUCTURE_NAMES:
            template = algebra.TEMPLATES[structure]
            anchors = rng.integers(0, 60, (5, template.num_anchors))
            relations = rng.integers(0, 4, (5, template.num_relations))
            inferred = ForwardContext(params).embed_instances(structure, anchors, relations,
                                                              union)
            trained = ForwardContext(params, train=True).embed_instances(
                structure, anchors, relations, union)
            assert len(inferred) == len(trained)
            for got, want in zip(inferred, trained):
                assert type(got) is np.ndarray and isinstance(want, ad.Tensor)
                np.testing.assert_array_equal(got, want.value, err_msg=structure)

            instance = algebra.QueryInstance(structure, tuple(map(int, anchors[0])),
                                             tuple(map(int, relations[0])))
            single = model.embed_instance(instance, params, union).branches
            trained_single = ForwardContext(params, train=True).embed_instances(
                structure, [instance.anchors], [instance.relations], union)
            assert len(single) == len(trained_single)
            for got, want in zip(single, trained_single):
                np.testing.assert_array_equal(got, want.value[0], err_msg=structure)


class TestSlotBinding:
    """The plan walk binds anchor and relation slots by position: compare it
    with the operators composed by hand on explicit ids."""

    anchors = np.array([[3, 17], [40, 5], [8, 8]])
    relations = np.array([[0, 1, 2], [2, 0, 1], [1, 3, 0]])

    def _op(self, ctx, rel_column, x):
        return ctx.skolem(ctx.relation_rows(self.relations[:, rel_column]), x)

    def test_pin(self):
        # pin: p(a, V) AND q(V, T) AND NOT r(b, T)
        ctx = ForwardContext(_params("point", "prod"))
        a, b = (ctx.entity_slots(self.anchors[:, i]) for i in (0, 1))
        want = ctx.conjoin([self._op(ctx, 1, self._op(ctx, 0, a)),
                            ctx.negate(self._op(ctx, 2, b))])
        (got,) = ctx.embed_instances("pin", self.anchors, self.relations)
        np.testing.assert_array_equal(got, want)

    def test_up_branches(self):
        # up: (p(a, V) OR q(b, V)) AND r(V, T), one DNF branch per disjunct
        ctx = ForwardContext(_params())
        a, b = (ctx.entity_slots(self.anchors[:, i]) for i in (0, 1))
        want = [self._op(ctx, 2, self._op(ctx, 0, a)), self._op(ctx, 2, self._op(ctx, 1, b))]
        got = ctx.embed_instances("up", self.anchors, self.relations, "dnf")
        assert len(got) == 2
        for g, w in zip(got, want):
            np.testing.assert_array_equal(g, w)


class TestScoreEntitiesOnGatheredRows:
    """The ranking recheck scores gathered rows ``E[ids]``; each score must be
    the same bytes as that entity's score against the whole table."""

    @pytest.mark.parametrize("mode", ["bounds", "point"])
    @pytest.mark.parametrize("structure", ["2i", "2u"])  # one branch, two DNF branches
    @pytest.mark.parametrize("ids", [[0], [59], [7, 3, 41, 3], list(range(60))[::-1]],
                             ids=["first", "last", "unsorted-repeated", "all-reversed"])
    def test_subset_scores_equal_full_table_scores(self, dataset, mode, structure, ids):
        params = _params(mode)
        entity_matrix = model.realize_all_entities(params)
        ids = np.array(ids, dtype=np.int64)
        for sample in dataset.by_structure()[structure]:
            qe = model.embed_instance(sample.instance, params, "dnf")
            got = model.score_entities(qe, params, entity_matrix[ids])
            want = model.score_entities(qe, params)[ids]
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


class TestInferenceRecordsNothing:
    def test_embedding_and_ranking_create_no_tensor(self, dataset, monkeypatch):
        created = []
        original = ad.Tensor.__init__

        def counting_init(self, *args, **kwargs):
            created.append(1)
            original(self, *args, **kwargs)

        monkeypatch.setattr(ad.Tensor, "__init__", counting_init)
        params = _params()
        for sample in dataset.samples:
            model.embed_instance(sample.instance, params, "dnf")
        report = evaluation.evaluate_ranking(dataset, params)
        assert sum(report.counts.values()) > 0
        assert created == []
        ForwardContext(params, train=True).embed_instances("2u", [[0, 1]], [[0, 1]])
        assert created  # the counter does see a training-mode forward pass


class TestTapeOperatorsMatchLogic:
    """The tape operators against ``reference_conjoin`` and
    ``reference_negate``, which evaluate the conjunction formulas slot by slot
    in Python floats; disjunction is De Morgan's law over both. With attention
    off every input weighs 1."""

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("k", [2, 3])
    def test_bounds_mode(self, kind, k):
        params = _params("bounds", kind, attention=False)
        values = [_bounds_rows(np.random.default_rng(i), 4) for i in range(k)]
        ctx = ForwardContext(params, train=True)
        leaves = [ctx.tape.leaf(v) for v in values]
        conjoined = ctx.conjoin(leaves).value
        disjoined = ctx.disjoin(leaves).value
        negated = ctx.negate(leaves[0]).value
        ones = [np.ones(2 * D)] * k
        alpha = params.config.alpha
        for row in range(4):
            want, _ = reference_conjoin(kind, [v[row] for v in values], ones, alpha)
            np.testing.assert_allclose(conjoined[row], want, rtol=RTOL_LOGIC, atol=ATOL_LOGIC)
            flipped = [reference_negate(v[row]) for v in values]
            want = reference_negate(reference_conjoin(kind, flipped, ones, alpha)[0])
            np.testing.assert_allclose(disjoined[row], want, rtol=RTOL_LOGIC, atol=ATOL_LOGIC)
            np.testing.assert_array_equal(negated[row], reference_negate(values[0][row]))

    @pytest.mark.parametrize("kind", KINDS)
    def test_bounds_mode_with_attention_weights(self, kind):
        params = _params("bounds", kind, attention=True)
        values = [_bounds_rows(np.random.default_rng(i), 4) for i in range(2)]
        ctx = ForwardContext(params, train=True)
        leaves = [ctx.tape.leaf(v) for v in values]
        conjoined = ctx.conjoin(leaves).value
        weights = [w.value for w in ctx.attention_weights(leaves)]
        assert min(np.min(w) for w in weights) < 0.9  # the weights matter
        for row in range(4):
            want, _ = reference_conjoin(kind, [v[row] for v in values],
                                        [np.concatenate([w[row], w[row]]) for w in weights],
                                        params.config.alpha)
            np.testing.assert_allclose(conjoined[row], want, rtol=RTOL_LOGIC, atol=ATOL_LOGIC)

    @pytest.mark.parametrize("kind", KINDS)
    def test_point_mode(self, kind):
        params = _params("point", kind, attention=False)
        rng = np.random.default_rng(3)
        values = [rng.uniform(0.0, 1.0, (4, 2 * D)) for _ in range(3)]
        ctx = ForwardContext(params, train=True)
        leaves = [ctx.tape.leaf(v) for v in values]
        conjoined = ctx.conjoin(leaves).value
        assert ctx.repair_count == 0
        for row in range(4):
            want, repairs = reference_conjoin(kind, [v[row] for v in values],
                                              [np.ones(2 * D)] * 3, params.config.alpha,
                                              "point")
            np.testing.assert_allclose(conjoined[row], want, rtol=RTOL_LOGIC, atol=ATOL_LOGIC)
            assert repairs == 0
        negated = ctx.negate(leaves[0]).value
        for row in range(4):
            np.testing.assert_array_equal(negated[row], reference_negate(values[0][row], "point"))


class TestRepairedConjunction:
    """A wide interval [0.7, 1.0] against the point 0.5: the smooth minimum is
    not monotone, so the conjoined lower exceeds the upper and is repaired."""

    @staticmethod
    def _inputs():
        rng = np.random.default_rng(4)
        wide = np.concatenate([rng.uniform(0.65, 0.75, (3, D)), rng.uniform(0.95, 1.0, (3, D))],
                              axis=1)
        point = 0.5 + rng.uniform(-0.02, 0.02, (3, 2 * D))
        point[:, D:] = point[:, :D]
        wide[:, 0], wide[:, D] = 0.2, 0.3  # one narrow dimension that does not cross
        return wide, point

    def test_value_matches_reference_and_counts_repairs(self):
        params = _params("bounds", "min", attention=False)
        wide, point = self._inputs()
        ctx = ForwardContext(params, train=True)
        out = ctx.conjoin([ctx.tape.leaf(wide), ctx.tape.leaf(point)]).value
        assert ctx.repair_count == 3 * (D - 1)
        ones = [np.ones(2 * D)] * 2
        for row in range(3):
            want, repairs = reference_conjoin("min", [wide[row], point[row]], ones,
                                              params.config.alpha)
            np.testing.assert_allclose(out[row], want, rtol=RTOL_LOGIC, atol=ATOL_LOGIC)
            assert repairs == D - 1
        assert np.all(out[:, 1:D] == out[:, D + 1:])
        assert out[0, 0] < out[0, D]

    def test_gradient_by_finite_differences(self):
        params = _params("bounds", "min", attention=False)

        def op(a, b):
            ctx = ForwardContext(params)
            out = ctx.conjoin([a, b])
            if isinstance(a, ad.Tensor):
                assert ctx.repair_count > 0
            return out

        check_gradients(op, *self._inputs())


HEAD_PARAMS = ("H1", "H1b", "H2", "H2b", "H3", "H3b")


def _head_params(graph, seed=0):
    """d = 32, so the head's hidden layers are 8 and 2 units wide; positive
    biases keep their ReLUs and the sigmoid away from their flat parts."""
    config = ModelConfig(graph.num_entities, graph.num_relations, d=32, h=16)
    params = ModelParams.initialize(config, seed)
    for name, value in (("H1b", 0.2), ("H2b", 0.2), ("H3b", 0.3)):
        params.arrays[name][:] = value
    return params


class TestCardinalityHead:
    @pytest.mark.parametrize("fitted", [False, True], ids=["seeded", "fitted"])
    def test_forward_and_prediction_equal_the_reference_bit_for_bit(self, graph, dataset,
                                                                    fitted):
        params = _head_params(graph)
        if fitted:
            params, _ = training.train_cardinality_head(params, dataset, epochs=5, lr=1e-2)
        features = evaluation.cardinality_features(params, dataset.samples)
        want = reference_cardinality_head(features, params)
        assert np.all((want > 0) & (want < params.config.rho))
        got = ForwardContext(params).cardinality(features)
        assert type(got) is np.ndarray and got.shape == (len(dataset.samples),)
        np.testing.assert_array_equal(got, want)
        for sample in dataset.samples:  # one row: BLAS may sum it unlike a batch row
            qe = model.embed_instance(sample.instance, params, "dm")
            size = reference_cardinality_head(logic.entropy_slots(qe.single)[None], params)[0]
            assert model.predict_cardinality(qe, params) == size
            assert model.predict_cardinality(qe.single, params) == size

    def test_first_epoch_tape_value_equals_the_reference(self, graph, dataset, monkeypatch):
        params = _head_params(graph)
        values = []
        original = ForwardContext.cardinality

        def capturing(ctx, h):
            out = original(ctx, h)
            if ctx.train:
                values.append(out.value.copy())
            return out

        monkeypatch.setattr(ForwardContext, "cardinality", capturing)
        training.train_cardinality_head(params, dataset, epochs=1)
        (tape_head,) = values
        train_idx, _ = evaluation.split_by_hash(dataset)
        features = evaluation.cardinality_features(params, dataset.samples)[train_idx]
        np.testing.assert_array_equal(tape_head, reference_cardinality_head(features, params))

    def test_fit_moves_every_head_parameter_and_nothing_else(self, graph, dataset):
        params = _head_params(graph)
        before = params.copy()
        fitted, report = training.train_cardinality_head(params, dataset, epochs=3, lr=1e-2)
        assert report["epochs"] == 3
        for name, array in fitted.arrays.items():
            np.testing.assert_array_equal(params.arrays[name], before.arrays[name])
            moved = not np.array_equal(array, before.arrays[name])
            assert moved == (name in HEAD_PARAMS), name

    def test_fit_loss_gradient_by_finite_differences(self, graph, dataset):
        params = _head_params(graph)
        features = evaluation.cardinality_features(params, dataset.samples)
        targets = np.random.default_rng(3).uniform(1.0, 50.0, len(features))
        ctx = ForwardContext(params, train=True)
        ad.backward(training._cardinality_loss(ctx, features, targets))
        assert set(ctx._dense) == set(HEAD_PARAMS)
        for name in HEAD_PARAMS:
            def loss(value, name=name):
                trial = params.copy()
                trial.arrays[name] = value
                return float(training._cardinality_loss(ForwardContext(trial), features, targets))

            grad = ctx._dense[name].grad
            assert np.any(grad != 0), name
            np.testing.assert_allclose(grad, numeric_grad(loss, params.arrays[name]),
                                       rtol=RTOL, atol=ATOL, err_msg=name)


@pytest.mark.parametrize("h", [0, -1])
def test_hidden_width_below_one_is_a_data_error(h):
    with pytest.raises(DataError, match="hidden width h must be at least 1"):
        ModelConfig(5, 2, d=16, h=h)


class TestCheckpoint:
    def test_round_trip_is_bit_exact(self, tmp_path):
        params = _params("point", "prod", attention=False)
        params.extra["note"] = {"steps": 3}
        params.save(tmp_path / "m.ckpt")
        loaded = ModelParams.load(tmp_path / "m.ckpt")
        assert loaded.config == params.config and loaded.extra == params.extra
        for name, array in params.arrays.items():
            assert loaded.arrays[name].tobytes() == array.tobytes()

    @pytest.mark.parametrize("damage,message", [
        (lambda blob: blob[:-100], "hash mismatch"),
        (lambda blob: blob[:100] + bytes([blob[100] ^ 1]) + blob[101:], "hash mismatch"),
        (lambda blob: b"XXXX" + blob[4:], "bad magic"),
    ], ids=["truncated", "flipped-byte", "bad-magic"])
    def test_damaged_file_raises_data_error(self, tmp_path, damage, message):
        path = tmp_path / "m.ckpt"
        _params().save(path)
        path.write_bytes(damage(path.read_bytes()))
        with pytest.raises(DataError, match=message):
            ModelParams.load(path)


    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_parameter_raises_data_error(self, tmp_path, value):
        params = _params()
        params.arrays["F3b"][:] = value
        params.save(tmp_path / "m.ckpt")
        with pytest.raises(DataError, match=r"non-finite values in parameters \['F3b'\]"):
            ModelParams.load(tmp_path / "m.ckpt")


class TestSlotPlans:
    def test_each_structure_compiles_once_per_process(self, tmp_path, monkeypatch, capsys):
        """Sampling in every mode, training, ranking under both union modes and
        the CLI's answer and oracle all share one cached plan per structure."""
        kg.write_tsv(kg.generate_synthetic(60, 4, 3.0, 0.1, 0.1, seed=4), tmp_path / "kg")
        graph = kg.load_tsv_dir(str(tmp_path / "kg"))
        compiled = Counter()
        original = algebra.compile_instance

        def counting_compile(structure):
            compiled[structure] += 1
            return original(structure)

        algebra.structure_plan.cache_clear()
        algebra.plan_branches.cache_clear()
        monkeypatch.setattr(algebra, "compile_instance", counting_compile)
        try:
            datasets = {mode: oracle.sample_dataset(graph, algebra.STRUCTURE_NAMES, 2, 0, mode)
                        for mode in ("entailment", "generalization")}
            datasets["train"] = oracle.sample_dataset(graph, algebra.TRAIN_STRUCTURES, 2, 0,
                                                      "train")
            config = training.TrainConfig(d=D, h=16, negatives=4, batch_size=12, steps=3)
            params, _ = training.train(graph, datasets["entailment"], config)
            for union in ("dnf", "dm", "dnf"):
                evaluation.evaluate_ranking(datasets["generalization"], params, union)
            params.save(tmp_path / "model.ckpt")
            for query in ("EXISTS V,T . r0(e0,V) OR r1(e1,V) AND r2(V,T)",
                          "EXISTS T . r0(e0,T) AND NOT r1(e1,T)"):
                for command in ("answer", "oracle"):
                    extra = ["--ckpt", str(tmp_path / "model.ckpt")] if command == "answer" else []
                    assert cli.main([command, "--kg", str(tmp_path / "kg"), *extra,
                                     "--query", query]) == cli.EXIT_OK
            assert capsys.readouterr().out
            assert set(datasets["entailment"].structures()) == set(algebra.STRUCTURE_NAMES)
            assert compiled == Counter({s: 1 for s in algebra.STRUCTURE_NAMES})
        finally:
            algebra.structure_plan.cache_clear()
            algebra.plan_branches.cache_clear()

    def test_warm_cache_builds_no_plan(self, graph, dataset, monkeypatch):
        """Once every structure's plan and branches are cached, sampling and
        ranking build no QueryPlan, so the shape check never runs again."""
        for structure in algebra.STRUCTURE_NAMES:
            for union in algebra.UNION_MODES:
                algebra.plan_branches(structure, union)
        built = []
        original = algebra.QueryPlan.__post_init__
        monkeypatch.setattr(algebra.QueryPlan, "__post_init__",
                            lambda plan: built.append(1) or original(plan))
        oracle.sample_dataset(graph, algebra.STRUCTURE_NAMES, 2, 0, "generalization")
        for union in algebra.UNION_MODES:
            evaluation.evaluate_ranking(dataset, _params(), union)
        assert built == []
        plan = algebra.PlanBuilder()
        plan.build(plan.add(algebra.Anchor(0)))
        assert built == [1]  # the counter does see a plan being built
