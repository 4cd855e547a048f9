import gc
import weakref

import numpy as np
import pytest

from skqe import algebra, autodiff as ad, logic, model, oracle, training
from skqe.model import ForwardContext, ModelConfig, ModelParams

from conftest import composed_distance, composed_gather_distance, composed_realize

EPS = 1e-6
RTOL = 1e-5
ATOL = 1e-8


def numeric_grad(f, x: np.ndarray) -> np.ndarray:
    """Central finite differences of a scalar function at x."""
    grad = np.zeros_like(x)
    for i in np.ndindex(x.shape):
        up, down = x.copy(), x.copy()
        up[i] += EPS
        down[i] -= EPS
        grad[i] = (f(up) - f(down)) / (2 * EPS)
    return grad


def check_gradients(op, *inputs, seed=0):
    """Tape gradients of sum(w * op(inputs)) against finite differences."""
    tape = ad.Tape()
    leaves = [tape.leaf(x) for x in inputs]
    out = op(*leaves)
    weights = np.random.default_rng(seed).uniform(0.5, 1.5, out.shape)
    ad.backward(ad.sum_all(out * weights))

    for k, x in enumerate(inputs):
        def f(xk, k=k):
            args = [xk if j == k else v for j, v in enumerate(inputs)]
            return float(np.sum(ad.value_of(op(*args)) * weights))

        np.testing.assert_allclose(leaves[k].grad, numeric_grad(f, x), rtol=RTOL, atol=ATOL,
                                   err_msg=f"operand {k}")


def _rng(seed=0):
    return np.random.default_rng(seed)


def _away_from_zero(shape, seed=0):
    r = _rng(seed)
    return r.uniform(0.2, 1.0, shape) * r.choice([-1.0, 1.0], shape)


class TestPrimitiveGradients:
    @pytest.mark.parametrize("op", [ad.add, ad.sub, ad.mul, ad.div])
    @pytest.mark.parametrize("shapes", [((3, 4), (3, 4)), ((3, 4), (4,)), ((3, 4), (3, 1)),
                                        ((2, 3, 4), (2, 1, 4))])
    def test_arithmetic_with_broadcasting(self, op, shapes):
        a = _rng(1).normal(size=shapes[0])
        b = _rng(2).uniform(0.5, 2.0, size=shapes[1])
        check_gradients(op, a, b)

    # -max(-a, -b) is the minimum that conftest's reference distances take
    @pytest.mark.parametrize("op", [ad.maximum, lambda a, b: -ad.maximum(-a, -b)],
                             ids=["maximum", "minimum"])
    def test_max_min(self, op):
        a = _rng(1).normal(size=(4, 5))
        b = a + _rng(2).uniform(0.1, 1.0, (4, 5)) * _rng(3).choice([-1.0, 1.0], (4, 5))
        check_gradients(op, a, b)

    def test_max_min_ties_route_to_first_operand(self):
        tape = ad.Tape()
        a, b = tape.leaf(np.ones(3)), tape.leaf(np.ones(3))
        ad.backward(ad.sum_all(ad.maximum(a, b) - ad.maximum(-a, -b)))
        assert a.grad.tolist() == [2.0, 2.0, 2.0]
        assert b.grad.tolist() == [0.0, 0.0, 0.0]

    def test_pow_elem(self):
        base = _rng(1).uniform(0.2, 0.9, (3, 4))
        exponent = _rng(2).uniform(0.5, 2.0, (3, 4))
        check_gradients(ad.pow_elem, base, exponent)

    @pytest.mark.parametrize("exponent,slope", [(1.0, 1.0), (1.5, 0.0), (3.0, 0.0)])
    def test_pow_elem_at_zero_base(self, exponent, slope):
        tape = ad.Tape()
        base, exp = tape.leaf(np.zeros(2)), tape.leaf(np.full(2, exponent))
        ad.backward(ad.sum_all(ad.pow_elem(base, exp)))
        # 0**w is 0 for every w > 0, so the exponent gradient is exactly 0;
        # the base gradient is the right-hand slope of x**w at 0
        assert exp.grad.tolist() == [0.0, 0.0]
        np.testing.assert_allclose(base.grad, slope, atol=1e-5)

    def test_pow_elem_at_zero_base_below_one_stays_finite(self):
        tape = ad.Tape()
        base, exp = tape.leaf(np.zeros(2)), tape.leaf(np.full(2, 0.5))
        ad.backward(ad.sum_all(ad.pow_elem(base, exp)))
        assert np.all(np.isfinite(base.grad)) and np.all(base.grad > 0)

    def test_scale_and_operators(self):
        def op(a, b):
            return a * -1.7 + (2.0 - a) * ad.div(1.0, b) - b / 3.0 + (-a)

        check_gradients(op, _rng(1).normal(size=(3, 2)), _rng(2).uniform(0.5, 2.0, (3, 2)))

    def test_scalar_over_tensor_is_a_type_error(self):
        # ``ad.div(1.0, b)`` is the one spelling of a scalar over a tensor
        tape = ad.Tape()
        with pytest.raises(TypeError):
            1.0 / tape.leaf(np.ones(2))

    def test_matmul(self):
        check_gradients(ad.matmul, _rng(1).normal(size=(3, 4)), _rng(2).normal(size=(4, 2)))

    def test_matmul_rejects_bad_shapes(self):
        tape = ad.Tape()
        with pytest.raises(ValueError):
            ad.matmul(tape.leaf(np.ones((2, 3))), tape.leaf(np.ones((2, 3))))

    def test_concat_slice_reshape(self):
        check_gradients(lambda a, b: ad.concat_last([a, b]),
                        _rng(1).normal(size=(3, 2)), _rng(2).normal(size=(3, 4)))
        check_gradients(lambda a: ad.slice_last(a, 1, 3), _rng(1).normal(size=(3, 5)))
        check_gradients(lambda a: ad.reshape(a, (2, 6)), _rng(1).normal(size=(3, 4)))

    @pytest.mark.parametrize("op", [ad.relu, ad.sigmoid, ad.log_sigmoid, ad.exp, ad.absolute])
    def test_unary(self, op):
        check_gradients(op, _away_from_zero((3, 4)) * 3.0)

    def test_log_sigmoid_is_stable_for_large_inputs(self):
        tape = ad.Tape()
        x = tape.leaf(np.array([-800.0, 800.0]))
        out = ad.log_sigmoid(x)
        ad.backward(ad.sum_all(out))
        np.testing.assert_allclose(out.value, [-800.0, 0.0])
        np.testing.assert_allclose(x.grad, [1.0, 0.0])

    @pytest.mark.parametrize("axis", [0, 1, 2])
    def test_mean_axis(self, axis):
        check_gradients(lambda a: ad.mean_axis(a, axis), _rng(1).normal(size=(2, 3, 4)))

    @pytest.mark.parametrize("op", [ad.sum_all])
    def test_full_reductions(self, op):
        check_gradients(op, _rng(1).normal(size=(3, 4)))

    @pytest.mark.parametrize("k", [1, 3])
    def test_goedel_minimum_on_the_tape(self, k):
        """The Gödel chain as ``logic.conjoin_slots`` composes it on the tape,
        truths and weights both differentiated, where the largest weighted
        deficit w (1 - t) of each slot is far from a tie."""
        truths = [_rng(i).uniform(0.05, 0.95, (2, 4)) for i in range(k)]
        weights = [_rng(20 + i).uniform(0.2, 1.0, (2, 4)) for i in range(k)]
        deficits = np.sort([w * (1.0 - t) for t, w in zip(truths, weights)], axis=0)
        assert k == 1 or np.all(deficits[-1] - deficits[-2] > 1e-2)

        def op(*tensors):
            return logic.conjoin_slots("min", list(tensors[:k]), list(tensors[k:]))

        check_gradients(op, *truths, *weights)

    def test_backward_needs_scalar(self):
        tape = ad.Tape()
        with pytest.raises(ValueError):
            ad.backward(tape.leaf(np.ones(2)))


class TestGradientOwnership:
    def test_shared_first_gradient_is_not_written_in_place(self):
        # add hands the same gradient array to both operands; the later
        # contribution into ``a`` (from ``a * 2.0``) must not change ``b``'s
        tape = ad.Tape()
        a, b = tape.leaf(np.ones(3)), tape.leaf(np.ones(3))
        scaled = a * 2.0
        total = ad.sum_all(ad.add(a, b) + scaled)
        ad.backward(total)
        assert a.grad.tolist() == [3.0, 3.0, 3.0]
        assert b.grad.tolist() == [1.0, 1.0, 1.0]

    def test_constants_get_no_gradient(self):
        tape = ad.Tape()
        a, c = tape.leaf(np.ones(2)), np.ones(2)
        product = a * c
        assert len(tape.nodes) == 2  # the leaf and the product: the constant adds no node
        ad.backward(ad.sum_all(product))
        assert a.grad.tolist() == [1.0, 1.0]


def _params(mode, seed=0, entities=12):
    return ModelParams.initialize(ModelConfig(entities, 3, d=16, h=16, mode=mode), seed)


@pytest.fixture(params=["one-row", "uneven", "default"])
def tiles(request, monkeypatch):
    """Sets ``model.DISTANCE_TILE_BYTES`` for (B, K) draws of 32 slots: tiles
    of one row, tiles of B - 1 rows (so the last tile is shorter), or the
    default budget."""
    def apply(ids_shape):
        b, k = ids_shape[0], int(np.prod(ids_shape[1:]))
        rows = {"one-row": 1, "uneven": max(1, b - 1), "default": None}[request.param]
        if rows is not None:
            monkeypatch.setattr(model, "DISTANCE_TILE_BYTES", rows * k * 32 * 8)

    return apply


class TestFusedEntityDistance:
    @pytest.mark.parametrize("mode", ["bounds", "point"])
    @pytest.mark.parametrize("ids_shape", [(3,), (3, 4)])
    def test_matches_composed_ops_bit_for_bit(self, mode, ids_shape, tiles):
        tiles(ids_shape)
        params = _params(mode)
        rng = _rng(5)
        ids = rng.integers(0, params.config.num_entities, ids_shape)
        query_value = rng.uniform(0.0, 1.0, (ids_shape[0], 32))
        weights = rng.uniform(0.5, 1.5, ids_shape)

        results = []
        for distance in (ForwardContext.entity_distance, composed_gather_distance):
            ctx = ForwardContext(params, train=True)
            query = ctx.tape.leaf(query_value)
            out = distance(ctx, ids, query)
            ad.backward(ad.sum_all(out * weights))
            (touched, rows), = ctx.entity_touches
            results.append((out.value, rows.grad, query.grad, touched))
        (fused, composed) = results
        assert fused[0].shape == ids_shape
        for got, want in zip(fused[:3], composed[:3]):
            np.testing.assert_array_equal(got, want)
        np.testing.assert_array_equal(fused[3], np.unique(ids))

    @pytest.mark.parametrize("mode", ["bounds", "point"])
    def test_finite_differences(self, mode):
        # slot-space gradients pulled back through the realization, against
        # finite differences at the entity pre-activations
        params = _params(mode, entities=8)
        rng = _rng(6)
        ids = np.arange(8).reshape(2, 4)  # distinct ids: one gradient row per entity
        query_value = rng.uniform(0.0, 1.0, (2, 32))
        weights = rng.uniform(0.5, 1.5, ids.shape)

        def loss(entity_table, value):
            probe = params.copy()
            probe.arrays["entity"] = entity_table
            ctx = ForwardContext(probe, train=True)  # realizes its own table
            query = ctx.tape.leaf(value)
            out = ctx.entity_distance(ids, query)
            return ctx, query, ad.sum_all(out * weights)

        ctx, query, total = loss(params.arrays["entity"], query_value)
        ad.backward(total)
        (touched, rows), = ctx.entity_touches
        table = params.arrays["entity"]
        sig = model._realize_parts(table, mode)[0]
        pre_grad = model._realize_backward(rows.grad, sig[touched], mode)
        numeric = numeric_grad(lambda t: float(loss(t, query_value)[2].value), table)
        np.testing.assert_allclose(pre_grad, numeric[touched], rtol=RTOL, atol=ATOL)
        np.testing.assert_allclose(
            query.grad, numeric_grad(lambda q: float(loss(table, q)[2].value), query_value),
            rtol=RTOL, atol=ATOL)

    @pytest.mark.parametrize("mode", ["bounds", "point"])
    def test_equal_slots_get_zero_gradient(self, mode, tiles):
        # d|x|/dx is taken as sign(0) = 0 where the entity equals the query,
        # which np.copysign or a `diff >= 0` test would make +-1
        params = _params(mode)
        ids = np.array([[3, 3, 3], [5, 5, 5]])
        tiles(ids.shape)
        equal = np.zeros(32, dtype=bool)
        equal[::3] = True
        table = model.realize_all_entities(params)
        query = table[ids[:, 0]].copy()
        query[:, ~equal] = np.clip(query[:, ~equal] + 0.1, 0.0, 1.0)
        ctx = ForwardContext(params, train=True, entities=table)
        leaf = ctx.tape.leaf(query)
        ad.backward(ad.sum_all(ctx.entity_distance(ids, leaf)))
        (touched, rows), = ctx.entity_touches
        np.testing.assert_array_equal(touched, [3, 5])
        for grad in (leaf.grad, rows.grad):
            assert np.all(grad[:, equal] == 0.0)
            assert np.all(grad[:, ~equal] != 0.0)

    @pytest.mark.parametrize("mode", ["bounds", "point"])
    def test_per_row_reference_merged_per_entity(self, mode, tiles):
        # in slot space the per-entity sums add each entity's draws in draw
        # order, as the per-row path merged with np.add.at does
        params = _params(mode)
        rng = _rng(13)
        ids = rng.integers(0, params.config.num_entities, (6, 40))
        tiles(ids.shape)
        query_value = rng.uniform(0.0, 1.0, (6, 32))
        weights = rng.uniform(0.5, 1.5, ids.shape)
        results = []
        for distance in (ForwardContext.entity_distance, composed_distance):
            ctx = ForwardContext(params, train=True)
            query = ctx.tape.leaf(query_value)
            out = distance(ctx, ids, query)
            ad.backward(ad.sum_all(out * weights))
            (touched, rows), = ctx.entity_touches
            results.append((out.value, touched, rows.grad, query.grad))
        fused, per_row = results
        unique, inverse = np.unique(per_row[1], return_inverse=True)
        merged = np.zeros((unique.size, 32))
        np.add.at(merged, inverse, per_row[2])
        np.testing.assert_array_equal(fused[0], per_row[0])
        np.testing.assert_array_equal(fused[1], unique)
        np.testing.assert_array_equal(fused[2], merged)
        np.testing.assert_array_equal(fused[3], per_row[3])

    @pytest.mark.parametrize("ids", [
        [11, 0, 11, 4, 0, 0],
        [[0, 11, 0], [11, 11, 3], [5, 0, 0], [3, 11, 7]],
    ], ids=["B", "BxK"])
    def test_distinct_ids_and_inverse_are_np_unique(self, monkeypatch, ids):
        # the first and last entity, with repeats; the inverse reaches the
        # backward's per-entity sums
        params = _params("bounds")
        ids = np.array(ids)
        assert {0, params.config.num_entities - 1} <= set(ids.reshape(-1).tolist())  # N = 12
        inverses, sum_rows = [], model.sum_rows

        def recording(inverse, rows, count):
            inverses.append(inverse.copy())
            return sum_rows(inverse, rows, count)

        monkeypatch.setattr(model, "sum_rows", recording)
        ctx = ForwardContext(params, train=True)
        query = ctx.tape.leaf(_rng(19).uniform(0.0, 1.0, (ids.shape[0], 32)))
        ad.backward(ad.sum_all(ctx.entity_distance(ids, query)))
        unique, inverse = np.unique(ids.reshape(-1), return_inverse=True)
        (touched, rows), = ctx.entity_touches
        np.testing.assert_array_equal(touched, unique)
        (got,) = inverses
        assert got.dtype == inverse.dtype
        np.testing.assert_array_equal(got, inverse)

        # so the step's merge adds the touch by ``table[ids] += grads``
        assert np.all(touched[1:] > touched[:-1])
        n = params.config.num_entities
        table, merged = np.zeros((n, 32)), np.zeros(n, dtype=bool)
        training._merge_row_grads([(touched, rows.grad)], table, merged)
        np.testing.assert_array_equal(np.flatnonzero(merged), unique)
        np.testing.assert_array_equal(table[unique], rows.grad)

    def test_gathers_from_the_realized_table(self, monkeypatch):
        params = _params("bounds", entities=40)
        ids = _rng(14).integers(0, 12, (5, 30))
        seen = []
        realize_parts = model._realize_parts

        def recording(rows, mode):
            seen.append(rows.shape[0])
            return realize_parts(rows, mode)

        monkeypatch.setattr(model, "_realize_parts", recording)
        query = _rng(15).uniform(0.0, 1.0, (5, 32))
        table = realize_parts(params.arrays["entity"], "bounds")[1]
        given = ForwardContext(params, train=True, entities=table)
        out = given.entity_distance(ids, given.tape.leaf(query))
        ad.backward(ad.sum_all(out))
        assert seen == []  # a given table is only gathered from
        (touched, rows), = given.entity_touches
        np.testing.assert_array_equal(rows.value, table[np.unique(ids)])

        own = ForwardContext(params, train=True)
        for _ in range(2):
            own.entity_distance(ids, own.tape.leaf(query))
        own.embed_instances("1p", [[0], [1]], [[0], [1]])
        assert seen == [40, 2]  # its own table once, then the Skolem output

    @pytest.mark.parametrize("budget_rows,want", [(1, [1] * 7), (3, [3, 3, 1]), (7, [7]),
                                                  (100, [7])])
    def test_gathers_tiles_within_the_budget(self, monkeypatch, budget_rows, want):
        params = _params("bounds")
        ids = _rng(16).integers(0, 12, (7, 5))
        monkeypatch.setattr(model, "DISTANCE_TILE_BYTES", budget_rows * 5 * 32 * 8 + 8)
        take, gathered = np.take, []

        def recording(a, indices, axis=None, out=None, mode="raise"):
            gathered.append(out.shape[0])
            assert out.nbytes <= model.DISTANCE_TILE_BYTES
            return take(a, indices, axis=axis, out=out, mode=mode)

        monkeypatch.setattr(np, "take", recording)
        ctx = ForwardContext(params, train=True)
        ctx.entity_distance(ids, ctx.tape.leaf(_rng(17).uniform(0.0, 1.0, (7, 32))))
        assert gathered == want


class TestSumRows:
    @pytest.mark.parametrize("width", [1, 16, 40, 64])
    def test_equals_scatter_add_bit_for_bit(self, width):
        # 40 is not a multiple of the 16-column chunk; ids 30 and 31 get no rows
        rng = _rng(18)
        inverse = rng.integers(0, 30, 500)
        rows = rng.normal(size=(500, width)) * 10.0 ** rng.uniform(-6, 6, (500, 1))
        want = np.zeros((32, width))
        np.add.at(want, inverse, rows)
        got = model.sum_rows(inverse, rows, 32)
        assert got.shape == (32, width)
        np.testing.assert_array_equal(got, want)


class TestRealize:
    @pytest.mark.parametrize("mode", ["bounds", "point"])
    def test_matches_composed_ops_bit_for_bit(self, mode):
        params = _params(mode)
        pre = _rng(9).normal(0.0, 2.0, (5, 32))
        weights = _rng(10).uniform(0.5, 1.5, (5, 32))
        results = []
        for realize in (ForwardContext.realize, composed_realize):
            ctx = ForwardContext(params, train=True)
            leaf = ctx.tape.leaf(pre)
            out = realize(ctx, leaf)
            ad.backward(ad.sum_all(out * weights))
            results.append((out.value, leaf.grad))
        np.testing.assert_array_equal(results[0][0], results[1][0])
        np.testing.assert_array_equal(results[0][1], results[1][1])

    @pytest.mark.parametrize("mode", ["bounds", "point"])
    def test_finite_differences(self, mode):
        params = _params(mode)

        def op(pre):
            return ForwardContext(params).realize(pre)

        check_gradients(op, _rng(11).normal(0.0, 2.0, (3, 32)))

    @pytest.mark.parametrize("mode", ["bounds", "point"])
    def test_numpy_scoring_mirror_matches_composed_tape(self, mode):
        params = _params(mode)
        ctx = ForwardContext(params)
        tape_side = ad.value_of(composed_realize(ctx, params.arrays["entity"]))
        np.testing.assert_array_equal(model.realize_all_entities(params), tape_side)

    def test_bounds_stay_ordered(self):
        ctx = ForwardContext(_params("bounds"))
        out = ad.value_of(ctx.realize(_rng(12).normal(0.0, 5.0, (50, 32))))
        assert np.all(out[:, :16] <= out[:, 16:])
        assert np.all((out >= 0.0) & (out <= 1.0))


class TestTapeLifetime:
    def test_tensor_refers_to_tape_weakly(self):
        tape = ad.Tape()
        x = tape.leaf(np.ones(2))
        y = x * 2.0
        assert y.tape.nodes[y.index] is y
        tape_ref = weakref.ref(tape)
        del tape
        assert tape_ref() is None
        with pytest.raises(ReferenceError):
            y + 1.0

    def test_finished_step_frees_its_tapes_without_gc(self, small_graph, monkeypatch):
        dataset = oracle.sample_dataset(small_graph, ("1p", "2i", "2in"), 4, 0, "train")
        tapes = []

        class Recording(ForwardContext):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                tapes.append(weakref.ref(self.tape))

        monkeypatch.setattr(training, "ForwardContext", Recording)
        config = training.TrainConfig(d=16, h=16, negatives=4, batch_size=8, steps=2,
                                      log_every=1)
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            params, records = training.train(small_graph, dataset, config)
            assert len(records) == 2 and tapes
            assert [ref() for ref in tapes] == [None] * len(tapes)
        finally:
            if was_enabled:
                gc.enable()

    def test_inference_embedding_frees_its_tape_without_gc(self, monkeypatch):
        params = _params("bounds")
        instance = algebra.QueryInstance("2u", (0, 1), (0, 1))
        tapes = []
        original = ad.Tape.__init__

        def recording_init(self):
            original(self)
            tapes.append(weakref.ref(self))

        monkeypatch.setattr(ad.Tape, "__init__", recording_init)
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            qe = model.embed_instance(instance, params, "dnf")
            assert len(qe.branches) == 2 and tapes
            assert [ref() for ref in tapes] == [None] * len(tapes)
        finally:
            if was_enabled:
                gc.enable()
