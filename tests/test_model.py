import itertools
from collections import Counter

import numpy as np
import pytest

from skqe import algebra, autodiff as ad, evaluation, kg, logic, model, oracle, training
from skqe.errors import DataError
from skqe.logic import TruthBounds
from skqe.model import ForwardContext, ModelConfig, ModelParams

from test_autodiff import check_gradients

D = 16
KINDS = ("luk", "prod", "min")


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
        model.MODES, KINDS, (True, False), model.UNION_MODES)))
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
            plan_branches = ForwardContext(params, train=True).embed_plan(
                algebra.compile_instance(instance), union)
            for got, want in zip(single, plan_branches):
                np.testing.assert_array_equal(got, want.value[0], err_msg=structure)


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
    """With attention off the tape operators weigh every input by 1, so they
    equal the ``logic`` API with explicit all-ones weights."""

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
        ones = [np.ones(D)] * k
        alpha = params.config.alpha
        for row in range(4):
            inputs = [TruthBounds(v[row]) for v in values]
            np.testing.assert_array_equal(
                conjoined[row], logic.conjoin_bounds(kind, inputs, ones, alpha).values)
            np.testing.assert_array_equal(
                disjoined[row], logic.disjoin_bounds(kind, inputs, ones, alpha).values)
            np.testing.assert_array_equal(negated[row], logic.negate(inputs[0]).values)

    @pytest.mark.parametrize("kind", KINDS)
    def test_bounds_mode_with_attention_weights(self, kind):
        params = _params("bounds", kind, attention=True)
        values = [_bounds_rows(np.random.default_rng(i), 4) for i in range(2)]
        ctx = ForwardContext(params, train=True)
        leaves = [ctx.tape.leaf(v) for v in values]
        conjoined = ctx.conjoin(leaves).value
        weights = [w.value for w in ctx.attention_weights(leaves)]
        for row in range(4):
            want = logic.conjoin_bounds(kind, [TruthBounds(v[row]) for v in values],
                                        [w[row] for w in weights], params.config.alpha)
            np.testing.assert_array_equal(conjoined[row], want.values)

    @pytest.mark.parametrize("kind", KINDS)
    def test_point_mode(self, kind):
        params = _params("point", kind, attention=False)
        rng = np.random.default_rng(3)
        values = [rng.uniform(0.0, 1.0, (4, 2 * D)) for _ in range(3)]
        ctx = ForwardContext(params, train=True)
        leaves = [ctx.tape.leaf(v) for v in values]
        want = logic.weighted_tnorm(kind, np.ones((3, 4, 2 * D)), np.stack(values),
                                    params.config.alpha)
        np.testing.assert_array_equal(ctx.conjoin(leaves).value, want)
        np.testing.assert_array_equal(ctx.negate(leaves[0]).value, 1.0 - values[0])


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

    def test_value_matches_logic_and_counts_repairs(self):
        params = _params("bounds", "min", attention=False)
        wide, point = self._inputs()
        ctx = ForwardContext(params, train=True)
        out = ctx.conjoin([ctx.tape.leaf(wide), ctx.tape.leaf(point)]).value
        assert ctx.repair_count == 3 * (D - 1)
        ones = [np.ones(D)] * 2
        for row in range(3):
            want = logic.conjoin_bounds("min", [TruthBounds(wide[row]), TruthBounds(point[row])],
                                        ones, params.config.alpha)
            np.testing.assert_array_equal(out[row], want.values)
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


class TestCardinalityMirror:
    def test_numpy_head_matches_tape_head(self, dataset, monkeypatch):
        params = _params("bounds")
        params.arrays["H3b"][:] = 0.3  # keep the sigmoid away from 0 and 1
        heads = []
        original = ad.reshape

        def capturing_reshape(a, shape):
            out = original(a, shape)
            heads.append(out.value.copy())
            return out

        monkeypatch.setattr(ad, "reshape", capturing_reshape)
        training.train_cardinality_head(params, dataset, epochs=1)
        (tape_head,) = heads
        train_idx, _ = training.split_by_hash(dataset)
        features = np.stack([
            logic.entropy_slots(model.embed_instance(dataset.samples[i].instance, params,
                                                     "dm").single)
            for i in train_idx
        ])
        np.testing.assert_allclose(model.cardinality_forward(features, params), tape_head,
                                   rtol=1e-12, atol=0)


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
    def test_each_structure_compiles_once_per_union_mode(self, graph, dataset, monkeypatch):
        compiled = Counter()
        original = algebra.compile_instance

        def counting_compile(instance):
            compiled[instance.structure] += 1
            return original(instance)

        model._slot_branches.cache_clear()
        monkeypatch.setattr(algebra, "compile_instance", counting_compile)
        try:
            config = training.TrainConfig(d=D, h=16, negatives=4, batch_size=12, steps=3)
            params, _ = training.train(graph, dataset, config)
            for _ in range(2):
                evaluation.evaluate_ranking(dataset, params, "dnf")
            assert compiled == Counter({s: 1 for s in dataset.structures()})
            evaluation.evaluate_ranking(dataset, params, "dm")
            assert compiled == Counter({s: 2 for s in dataset.structures()})
        finally:
            model._slot_branches.cache_clear()
