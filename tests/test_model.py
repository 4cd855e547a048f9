import dataclasses
import itertools
from collections import Counter

import numpy as np
import pytest

from skqe import algebra, autodiff as ad, cli, evaluation, kg, logic, model, oracle, training
from skqe.errors import DataError
from skqe.model import ForwardContext, ModelConfig, ModelParams

from conftest import (
    MALFORMED_HEADERS, reference_conjoin, reference_negate,
    write_checkpoint_version, write_malformed_checkpoint,
)
from test_autodiff import check_gradients

D = 16
KINDS = ("luk", "prod", "min")
# the references sum in another order, in Python floats
RTOL_LOGIC, ATOL_LOGIC = 1e-12, 1e-14


def _params(mode="bounds", kind="luk", entities=60, seed=0):
    config = ModelConfig(entities, 4, d=D, h=16, mode=mode, kind=kind)
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
    return oracle.sample_dataset(graph, ("1p", "2i", "2in", "2u", "up"), 3, 0, "train")


class TestInferenceMatchesTraining:
    @pytest.mark.parametrize("mode,kind,union", list(itertools.product(
        model.MODES, KINDS, algebra.UNION_MODES)))
    def test_plain_arrays_equal_tape_values_bit_for_bit(self, mode, kind, union):
        params = _params(mode, kind)
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


class TestOneEntityTable:
    """Every context gathers entity rows from one realized (N, 2d) table: the
    one it is given or its own, realized on its first gather. Realization
    works element by element, so every path gives the bytes of realizing the
    gathered parameter rows."""

    @pytest.mark.parametrize("mode", model.MODES)
    @pytest.mark.parametrize("shape", [(7,), (5, 9)], ids=["B", "BxK"])
    def test_entity_slots_are_the_same_bytes_in_every_path(self, mode, shape):
        params = _params(mode)
        ids = np.random.default_rng(3).integers(0, 60, shape)
        ids.reshape(-1)[:2] = (59, 0)  # the last and the first row
        want = model._realize_parts(params.arrays["entity"][ids], mode)[1]
        table = model.realize_all_entities(params)
        for train in (False, True):
            for ctx in (ForwardContext(params, train, table), ForwardContext(params, train)):
                got = ctx.entity_slots(ids)
                assert isinstance(got, ad.Tensor) == train
                assert ad.value_of(got).tobytes() == want.tobytes()
                assert len(ctx.entity_touches) == train

    @pytest.mark.parametrize("mode", model.MODES)
    @pytest.mark.parametrize("union", algebra.UNION_MODES)
    def test_embeddings_on_a_passed_table_equal_the_other_paths(self, mode, union,
                                                                monkeypatch):
        params = _params(mode)
        table = model.realize_all_entities(params)
        realized, realize_parts = [], model._realize_parts

        def recording(rows, mode):
            realized.append(rows.shape[0])
            return realize_parts(rows, mode)

        monkeypatch.setattr(model, "_realize_parts", recording)
        rng = np.random.default_rng(4)
        for structure in algebra.STRUCTURE_NAMES:
            template = algebra.TEMPLATES[structure]
            anchors = rng.integers(0, 60, (5, template.num_anchors))
            relations = rng.integers(0, 4, (5, template.num_relations))
            passed = ForwardContext(params, entities=table).embed_instances(
                structure, anchors, relations, union)
            assert set(realized) == {5}, structure  # Skolem outputs, never the table
            lazy = ForwardContext(params).embed_instances(structure, anchors, relations, union)
            trained = ForwardContext(params, True, table).embed_instances(
                structure, anchors, relations, union)
            for got, own, tape in zip(passed, lazy, trained, strict=True):
                assert got.tobytes() == own.tobytes() == tape.value.tobytes(), structure
            realized.clear()


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
                            logic.negate_slots(self._op(ctx, 2, b), "point")])
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


class TestForwardPass:
    """``embed_instances`` evaluates each branch plan once, node by node."""

    @pytest.mark.parametrize("union", algebra.UNION_MODES)
    @pytest.mark.parametrize("structure", algebra.STRUCTURE_NAMES)
    def test_collect_yields_one_value_per_node(self, structure, union):
        template = algebra.TEMPLATES[structure]
        rng = np.random.default_rng(2)
        anchors = rng.integers(0, 60, (3, template.num_anchors))
        relations = rng.integers(0, 4, (3, template.num_relations))
        for train in (False, True):
            collected = []
            outs = ForwardContext(_params(), train=train).embed_instances(
                structure, anchors, relations, union, collect=collected)
            plans = algebra.plan_branches(structure, union)
            assert [plan for plan, _ in collected] == list(plans)
            assert len(outs) == len(plans)
            for out, (plan, values) in zip(outs, collected):
                assert len(values) == len(plan.nodes)
                assert values[-1] is out
                assert all(ad.value_of(v).shape == (3, 2 * D) for v in values)

    @pytest.mark.parametrize("structure", algebra.STRUCTURE_NAMES)
    def test_rows_are_gathered_in_node_order(self, structure):
        """Anchor and relation rows are gathered, and their touches recorded,
        in node order: a relation's rows after its input's. The step folds
        relation-row gradients in this order."""
        template = algebra.TEMPLATES[structure]
        anchors = np.array([range(template.num_anchors), range(10, 10 + template.num_anchors)])
        relations = np.array([range(template.num_relations), range(1, 1 + template.num_relations)])
        for union in algebra.UNION_MODES:
            ctx = ForwardContext(_params(), train=True)
            ctx.embed_instances(structure, anchors, relations, union)
            nodes = [node for plan in algebra.plan_branches(structure, union) for node in plan.nodes]
            assert [ids.tolist() for ids, _ in ctx.relation_touches] == [
                relations[:, node.slot].tolist() for node in nodes
                if isinstance(node, algebra.Relate)]
            assert [ids.tolist() for ids, _ in ctx.entity_touches] == [
                anchors[:, node.slot].tolist() for node in nodes
                if isinstance(node, algebra.Anchor)]


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
        assert sum(len(ranks) for ranks in report.ranks.values()) > 0
        assert created == []
        ForwardContext(params, train=True).embed_instances("2u", [[0, 1]], [[0, 1]])
        assert created  # the counter does see a training-mode forward pass


class TestTapeOperatorsMatchLogic:
    """The tape operators against ``reference_conjoin`` and
    ``reference_negate``, which evaluate the conjunction formulas slot by slot
    in Python floats; disjunction is De Morgan's law over both. Every
    conjunction is weighted: the references take the weights that
    ``attention_weights`` gives for the conjuncts, tiled over both slot
    halves, and the unit-weight formulas are pinned in ``test_logic.py``."""

    @staticmethod
    def _weights(ctx, xs) -> list[np.ndarray]:
        return [np.concatenate([w.value, w.value], axis=1) for w in ctx.attention_weights(xs)]

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("k", [2, 3])
    def test_bounds_mode(self, kind, k):
        params = _params("bounds", kind)
        values = [_bounds_rows(np.random.default_rng(i), 4) for i in range(k)]
        ctx = ForwardContext(params, train=True)
        leaves = [ctx.tape.leaf(v) for v in values]
        conjoined = ctx.conjoin(leaves).value
        disjoined = ctx.disjoin(leaves).value
        negated = logic.negate_slots(leaves[0], "bounds").value
        weights = self._weights(ctx, leaves)
        flipped_weights = self._weights(ctx, [logic.negate_slots(x, "bounds") for x in leaves])
        assert min(np.min(w) for w in weights + flipped_weights) < 0.9  # the weights matter
        for row in range(4):
            want = reference_conjoin(kind, [v[row] for v in values], [w[row] for w in weights])
            np.testing.assert_allclose(conjoined[row], want, rtol=RTOL_LOGIC, atol=ATOL_LOGIC)
            flipped = [reference_negate(v[row]) for v in values]
            want = reference_negate(
                reference_conjoin(kind, flipped, [w[row] for w in flipped_weights]))
            np.testing.assert_allclose(disjoined[row], want, rtol=RTOL_LOGIC, atol=ATOL_LOGIC)
            np.testing.assert_array_equal(negated[row], reference_negate(values[0][row]))

    @pytest.mark.parametrize("kind", KINDS)
    def test_point_mode(self, kind):
        params = _params("point", kind)
        rng = np.random.default_rng(3)
        values = [rng.uniform(0.0, 1.0, (4, 2 * D)) for _ in range(3)]
        ctx = ForwardContext(params, train=True)
        leaves = [ctx.tape.leaf(v) for v in values]
        conjoined = ctx.conjoin(leaves).value
        weights = self._weights(ctx, leaves)
        assert min(np.min(w) for w in weights) < 0.9
        for row in range(4):
            want = reference_conjoin(kind, [v[row] for v in values], [w[row] for w in weights])
            np.testing.assert_allclose(conjoined[row], want, rtol=RTOL_LOGIC, atol=ATOL_LOGIC)
        negated = logic.negate_slots(leaves[0], "point").value
        for row in range(4):
            np.testing.assert_array_equal(negated[row], reference_negate(values[0][row], "point"))


def test_goedel_conjoin_gradient_by_finite_differences():
    """Through the attention weights and the Gödel chain, in bounds mode, at
    inputs whose weighted deficits w (1 - t) are far from a tie, where the
    maximum is differentiable."""
    params = _params("bounds", "min")
    rng = np.random.default_rng(4)
    xs = [_bounds_rows(rng, 3) for _ in range(2)]
    tiled = [np.concatenate([w, w], axis=1) for w in ForwardContext(params).attention_weights(xs)]
    deficits = [w * (1.0 - x) for w, x in zip(tiled, xs)]
    assert np.min(np.abs(deficits[0] - deficits[1])) > 1e-3

    def op(a, b):
        return ForwardContext(params).conjoin([a, b])

    check_gradients(op, *xs)


def test_config_fields_are_the_settings_a_run_can_change():
    # every conjunction is weighted, so no field switches the weights off
    assert [f.name for f in dataclasses.fields(ModelConfig)] == [
        "num_entities", "num_relations", "d", "h", "mode", "kind"]
    with pytest.raises(TypeError, match="attention"):
        ModelConfig(5, 2, attention=False)


@pytest.mark.parametrize("h", [0, -1])
def test_hidden_width_below_one_is_a_data_error(h):
    with pytest.raises(DataError, match="hidden width h must be at least 1"):
        ModelConfig(5, 2, d=16, h=h)


class TestCheckpoint:
    def test_round_trip_is_bit_exact(self, tmp_path):
        params = _params("point", "prod")
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


    @pytest.mark.parametrize("case", MALFORMED_HEADERS)
    def test_malformed_header_raises_data_error_naming_the_path(self, tmp_path, case):
        # the sha256 trailer is valid, so only the header checks can catch these
        _params().save(tmp_path / "m.ckpt")
        path = write_malformed_checkpoint(tmp_path / "m.ckpt", tmp_path / "bad.ckpt", case)
        with pytest.raises(DataError) as info:
            ModelParams.load(path)
        assert str(info.value).startswith(f"{path}: ")

    @pytest.mark.parametrize("version", [1, 2, 3])
    def test_older_version_is_an_unsupported_version(self, tmp_path, version):
        # version 3 meant the smooth minimum by kind min, so its min checkpoints
        # would change meaning; version 2 held the config key attention;
        # version 1 also the attention bias G2b and the alpha and rho config keys
        assert model.CHECKPOINT_VERSION == 4
        _params().save(tmp_path / "m.ckpt")
        path = write_checkpoint_version(tmp_path / "m.ckpt", tmp_path / "old.ckpt", version)
        with pytest.raises(DataError) as info:
            ModelParams.load(path)
        assert str(info.value) == f"{path}: unsupported checkpoint version {version}"

    @pytest.mark.parametrize("field", ["num_entities", "num_relations", "d", "h"])
    @pytest.mark.parametrize("value", ["16", 16.0, True, None])
    def test_non_integer_size_is_a_data_error(self, field, value):
        sizes = dict(num_entities=5, num_relations=2, d=16, h=16)
        with pytest.raises(DataError, match="must be integers"):
            ModelConfig(**{**sizes, field: value})

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
                        for mode in oracle.DATASET_MODES}
            trainable = oracle.sample_dataset(graph, algebra.TRAIN_STRUCTURES, 2, 0, "train")
            config = training.TrainConfig(d=D, h=16, negatives=4, batch_size=12, steps=3)
            params, _ = training.train(graph, trainable, config)
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
            assert set(datasets["train"].by_structure()) == set(algebra.STRUCTURE_NAMES)
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
        algebra.QueryPlan((algebra.Anchor(0),))
        assert built == [1]  # the counter does see a plan being built
