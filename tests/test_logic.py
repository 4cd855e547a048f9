import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from skqe import logic
from skqe.logic import TruthBounds
from skqe.model import ForwardContext, ModelConfig, ModelParams

from conftest import reference_conjoin, reference_negate

GRID = np.arange(0, 21) * 0.05
KINDS = ("min", "prod", "luk")

# dyadic rationals keep 1 - (1 - x) exact in float64
unit_floats = st.integers(0, 2**53).map(lambda k: k / 2**53)


def weighted_conjoin(kind, weights, truths):
    """``conjoin_slots`` of truths stacked on axis 0."""
    w = np.asarray(weights, dtype=np.float64)
    t = np.asarray(truths, dtype=np.float64)
    return logic.conjoin_slots(kind, list(t), list(w))


def tnorm(kind, truths):
    """``weighted_conjoin`` with unit weights: the plain t-norm."""
    t = np.asarray(truths, dtype=np.float64)
    return weighted_conjoin(kind, np.ones_like(t), t)


def disjoin(kind, xs):
    """De Morgan disjunction of flat bounds with unit weights, composed from
    the slot operators as the model composes it."""
    flipped = [logic.negate_slots(x, "bounds") for x in xs]
    ones = [np.ones_like(x) for x in xs]
    return logic.negate_slots(logic.conjoin_slots(kind, flipped, ones), "bounds")


def random_bounds(rng, d=6) -> TruthBounds:
    lower = rng.uniform(0, 1, d)
    upper = lower + rng.uniform(0, 1, d) * (1 - lower)
    return TruthBounds.from_pairs(lower, upper)


class TestTruthBounds:
    def test_layout(self):
        tb = TruthBounds.from_pairs([0.1, 0.2], [0.5, 0.9])
        assert tb.dim == 2
        assert tb.values[:2].tolist() == [0.1, 0.2]
        assert tb.values[2:].tolist() == [0.5, 0.9]

    def test_crossed_bounds_rejected(self):
        with pytest.raises(ValueError):
            TruthBounds(np.array([0.6, 0.4]))

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            TruthBounds(np.array([-0.1, 0.5]))
        with pytest.raises(ValueError):
            TruthBounds(np.array([0.1, 1.5]))


class TestNegate:
    def test_formula(self):
        assert logic.negate_slots(np.array([0.2, 0.5]), "bounds").tolist() == [0.5, 0.8]

    def test_unknown_is_fixed_point(self):
        assert logic.negate_slots(np.array([0.0, 1.0]), "bounds").tolist() == [0.0, 1.0]

    def test_point_truth(self):
        assert np.allclose(logic.negate_slots(np.array([0.3, 0.3]), "bounds"), [0.7, 0.7])
        assert np.allclose(logic.negate_slots(np.array([0.3, 0.6]), "point"), [0.7, 0.4])

    @given(st.lists(unit_floats, min_size=2, max_size=8))
    def test_involution_exact(self, values):
        values = sorted(values)
        half = len(values) // 2
        tb = TruthBounds.from_pairs(values[:half], values[len(values) - half:])
        twice = logic.negate_slots(logic.negate_slots(tb.values, "bounds"), "bounds")
        assert np.array_equal(twice, tb.values)


class TestUnweightedTnorm:
    """The t-norm axioms of ``conjoin_slots`` with unit weights, for each of
    the three kinds."""

    def test_lukasiewicz_example(self):
        assert tnorm("luk", [[0.7], [0.6]])[0] == pytest.approx(0.3, abs=1e-12)

    def test_product_example(self):
        assert tnorm("prod", [[0.5], [0.5]])[0] == 0.25

    def test_identity_element(self):
        # luk and min compute 1 - (1 - t), one ulp off t for non-dyadic grid values
        for kind in KINDS:
            out = tnorm(kind, np.stack([np.ones_like(GRID), GRID]))
            np.testing.assert_allclose(out, GRID, atol=1e-9)

    def test_annihilator(self):
        for kind in KINDS:
            out = tnorm(kind, np.stack([np.zeros_like(GRID), GRID]))
            np.testing.assert_allclose(out, np.zeros_like(GRID), atol=1e-9)

    def test_commutative_on_grid(self):
        pairs = np.array(list(itertools.product(GRID, GRID)))
        for kind in KINDS:
            ab = tnorm(kind, pairs.T)
            ba = tnorm(kind, pairs.T[::-1])
            np.testing.assert_array_equal(ab, ba)

    def test_associative_on_grid(self):
        triples = np.array(list(itertools.product(GRID, GRID, GRID)))
        a, b, c = triples.T
        for kind in KINDS:
            left = tnorm(kind, np.stack([tnorm(kind, np.stack([a, b])), c]))
            right = tnorm(kind, np.stack([a, tnorm(kind, np.stack([b, c]))]))
            np.testing.assert_allclose(left, right, atol=1e-9)

    def test_monotone_on_grid(self):
        for kind in KINDS:
            for s in GRID:
                outs = tnorm(kind, np.stack([GRID, np.full_like(GRID, s)]))
                assert np.all(np.diff(outs) >= 0)

    def test_lukasiewicz_nilpotency_exact(self):
        t = np.linspace(0, 1, 1001)
        out = tnorm("luk", np.stack([t, 1.0 - t]))
        assert np.all(out == 0.0)


class TestWeightedTnorm:
    def test_lukasiewicz_formula(self):
        out = weighted_conjoin("luk", [[0.5], [1.0]], [[0.8], [0.6]])
        assert out[0] == pytest.approx(0.5, abs=1e-12)

    def test_zero_weight_removes_input(self):
        out = weighted_conjoin("prod", [[1.0], [0.0]], [[0.3], [0.9]])
        assert out[0] == 0.3
        for kind in ("luk", "min"):
            out = weighted_conjoin(kind, [[1.0], [0.0]], [[0.3], [0.9]])
            assert out[0] == pytest.approx(0.3, abs=1e-12)

    def test_min_is_idempotent_at_any_weight(self):
        for c in GRID:
            out = weighted_conjoin("min", [[1.0], [0.4]], [[c], [c]])
            assert out[0] == pytest.approx(c, abs=1e-12)

    def test_all_ones_reduces_exactly_for_prod_and_luk(self):
        pairs = np.array(list(itertools.product(GRID, GRID))).T
        plain = {"prod": np.prod(pairs, axis=0),
                 "luk": np.maximum(0.0, 1.0 - np.sum(1.0 - pairs, axis=0))}
        for kind in ("prod", "luk"):
            np.testing.assert_array_equal(tnorm(kind, pairs), plain[kind])

    def test_min_is_the_hard_minimum_at_unit_weights(self):
        pairs = np.array(list(itertools.product(GRID, GRID))).T
        np.testing.assert_allclose(tnorm("min", pairs), np.minimum(pairs[0], pairs[1]),
                                   rtol=0, atol=2**-53)

    def test_all_weights_zero_give_one_for_min(self):
        out = weighted_conjoin("min", [[0.0], [0.0]], [[0.3], [0.9]])
        assert out[0] == 1.0

    def test_result_in_unit_interval(self):
        rng = np.random.default_rng(0)
        for kind in KINDS:
            w = rng.uniform(0, 1, (3, 50))
            t = rng.uniform(0, 1, (3, 50))
            out = weighted_conjoin(kind, w, t)
            assert np.all((out >= 0) & (out <= 1))

    def test_weighted_luk_can_exceed_unweighted(self):
        # w < 1 weakens the deficit sum, a property of the weighted form
        weighted = weighted_conjoin("luk", [[0.5], [0.5]], [[0.5], [0.5]])
        unweighted = tnorm("luk", [[0.5], [0.5]])
        assert weighted[0] > unweighted[0]


class TestConjoinBounds:
    def test_bounds_stay_ordered(self):
        rng = np.random.default_rng(1)
        for kind in KINDS:
            for _ in range(100):
                inputs = [random_bounds(rng) for _ in range(3)]
                weights = [rng.uniform(0, 1, 6) for _ in range(3)]
                out = logic.conjoin_bounds(kind, inputs, weights)
                assert np.all(out.values[:6] <= out.values[6:])

    def test_all_true_is_identity(self):
        rng = np.random.default_rng(2)
        tb = random_bounds(rng)
        top = TruthBounds(np.ones(12))
        unit = [np.ones(6), np.ones(6)]
        np.testing.assert_array_equal(logic.conjoin_bounds("prod", [tb, top], unit).values,
                                      tb.values)
        for kind in ("luk", "min"):
            np.testing.assert_allclose(logic.conjoin_bounds(kind, [tb, top], unit).values,
                                       tb.values, atol=1e-12)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError, match="imension"):
            logic.conjoin_bounds("luk", [TruthBounds(np.zeros(4)), TruthBounds(np.zeros(6))],
                                 [np.ones(2), np.ones(3)])


class TestSlotsMatchReference:
    """``conjoin_slots`` and ``negate_slots``, batched over rows, against the
    per-slot Python-float references in ``conftest``."""

    @staticmethod
    def _slots(rng, mode, rows=8, d=6):
        if mode == "point":
            return rng.uniform(0.05, 1.0, (rows, 2 * d))
        lower = rng.uniform(0.05, 1.0, (rows, d))
        upper = lower + rng.uniform(0.0, 1.0, (rows, d)) * (1.0 - lower)
        return np.concatenate([lower, upper], axis=1)

    @pytest.mark.parametrize("mode", ["bounds", "point"])
    @pytest.mark.parametrize("kind", KINDS)
    def test_conjoin_slots(self, kind, mode):
        rng = np.random.default_rng(5)
        xs = [self._slots(rng, mode) for _ in range(3)]
        if mode == "bounds":  # a point truth beside wide intervals
            xs[1][:, 6:] = xs[1][:, :6]
        # one weight per dimension, shared by its lower and upper, as in the model
        ws = [np.tile(rng.uniform(0.1, 1.0, (8, 6)), 2) for _ in range(3)]
        got = logic.conjoin_slots(kind, xs, ws)
        for row in range(xs[0].shape[0]):
            want = reference_conjoin(kind, [x[row] for x in xs], [w[row] for w in ws])
            np.testing.assert_allclose(got[row], want, rtol=1e-12, atol=1e-14)

    @pytest.mark.parametrize("mode", ["bounds", "point"])
    def test_negate_slots(self, mode):
        xs = self._slots(np.random.default_rng(6), mode)
        got = logic.negate_slots(xs, mode)
        for row in range(xs.shape[0]):
            np.testing.assert_array_equal(got[row], reference_negate(xs[row], mode))


class TestDeMorganDisjunction:
    def test_de_morgan_gives_the_dual_conorm(self):
        # not(T(not a, not b)) per slot: the probabilistic sum for prod, the
        # bounded sum for luk and the maximum for min, on lowers and uppers alike
        rng = np.random.default_rng(3)
        conorms = {"prod": lambda a, b: a + b - a * b, "luk": lambda a, b: np.minimum(1.0, a + b),
                   "min": np.maximum}
        for kind, conorm in conorms.items():
            a, b = (random_bounds(rng).values for _ in range(2))
            np.testing.assert_allclose(disjoin(kind, [a, b]), conorm(a, b), atol=1e-12)

    def test_disjoin_with_all_false_is_identity(self):
        rng = np.random.default_rng(4)
        tb = random_bounds(rng)
        bottom = np.zeros(12)
        np.testing.assert_array_equal(disjoin("prod", [tb.values, bottom]), tb.values)
        np.testing.assert_allclose(disjoin("luk", [tb.values, bottom]), tb.values, atol=1e-12)

    def test_disjoin_idempotent_under_min_weighted(self):
        rng = np.random.default_rng(5)
        tb = random_bounds(rng)
        np.testing.assert_allclose(disjoin("min", [tb.values, tb.values]), tb.values, atol=1e-6)

    def test_probabilistic_sum_for_prod(self):
        half = np.array([0.5, 0.5])
        np.testing.assert_allclose(disjoin("prod", [half, half]), [0.75, 0.75])


def ordered_bounds(k: int, d: int):
    """k (1, 2d) rows of bounds with 0 <= l <= u <= 1."""
    pairs = hnp.arrays(np.float64, (k, 2, 1, d), elements=st.floats(0.0, 1.0))
    return pairs.map(lambda a: list(np.concatenate([a.min(axis=1), a.max(axis=1)], axis=-1)))


class TestBoundsNeverCross:
    """Every kind is monotone in each input, and a dimension's lower and upper
    share one weight, so a conjunction or disjunction of ordered bounds is
    ordered: nothing needs repair."""

    @settings(derandomize=True)
    @given(kind=st.sampled_from(KINDS), k=st.integers(1, 4), data=st.data())
    def test_conjoin_slots(self, kind, k, data):
        xs = data.draw(ordered_bounds(k, 3))
        weights = data.draw(hnp.arrays(np.float64, (k, 1, 3),
                                       elements=st.floats(0.0, 1.0, exclude_min=True)))
        out = logic.conjoin_slots(kind, xs, [np.tile(w, 2) for w in weights])
        assert np.all((0.0 <= out[:, :3]) & (out[:, :3] <= out[:, 3:]) & (out[:, 3:] <= 1.0))

    @settings(derandomize=True, max_examples=50)
    @given(kind=st.sampled_from(KINDS), k=st.integers(1, 3), seed=st.integers(0, 2**16),
           data=st.data())
    def test_forward_context_disjoin(self, kind, k, seed, data):
        params = ModelParams.initialize(ModelConfig(4, 2, d=16, h=8, kind=kind), seed)
        out = ForwardContext(params).disjoin(data.draw(ordered_bounds(k, 16)))
        assert np.all((0.0 <= out[:, :16]) & (out[:, :16] <= out[:, 16:]) & (out[:, 16:] <= 1.0))


class TestEntropy:
    def test_full_interval_has_zero_entropy(self):
        assert logic.entropy_slots(np.array([0.0, 1.0]))[0] == 0.0

    def test_half_interval(self):
        assert logic.entropy_slots(np.array([0.25, 0.75]))[0] == pytest.approx(np.log(0.5))

    def test_point_truth_clamped(self):
        entropy = logic.entropy_slots(np.array([0.3, 0.3]))
        assert entropy[0] == pytest.approx(np.log(1e-9))
        assert np.isfinite(entropy).all()

    def test_batched_rows(self):
        rows = np.array([[0.0, 0.25, 1.0, 0.75], [0.5, 0.5, 0.5, 0.5]])
        np.testing.assert_allclose(logic.entropy_slots(rows),
                                   [[0.0, np.log(0.5)], [np.log(1e-9)] * 2])
