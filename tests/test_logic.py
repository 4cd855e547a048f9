import itertools

import numpy as np
import pytest
from hypothesis import given, strategies as st

from skqe import logic
from skqe.logic import TruthBounds

GRID = np.arange(0, 21) * 0.05
KINDS = ("min", "prod", "luk")

# dyadic rationals keep 1 - (1 - x) exact in float64
unit_floats = st.integers(0, 2**53).map(lambda k: k / 2**53)


def random_bounds(rng, d=6) -> TruthBounds:
    lower = rng.uniform(0, 1, d)
    upper = lower + rng.uniform(0, 1, d) * (1 - lower)
    return TruthBounds.from_pairs(lower, upper)


class TestTruthBounds:
    def test_layout_and_views(self):
        tb = TruthBounds(np.array([0.1, 0.2, 0.5, 0.9]))
        assert tb.dim == 2
        assert tb.lower.tolist() == [0.1, 0.2]
        assert tb.upper.tolist() == [0.5, 0.9]
        assert np.allclose(tb.widths, [0.4, 0.7])

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
        tb = TruthBounds(np.array([0.2, 0.5]))
        assert logic.negate(tb).values.tolist() == [0.5, 0.8]

    def test_unknown_is_fixed_point(self):
        tb = TruthBounds(np.array([0.0, 1.0]))
        assert logic.negate(tb).values.tolist() == [0.0, 1.0]

    def test_point_truth(self):
        tb = TruthBounds(np.array([0.3, 0.3]))
        assert np.allclose(logic.negate(tb).values, [0.7, 0.7])

    @given(st.lists(unit_floats, min_size=2, max_size=8))
    def test_involution_exact(self, values):
        values = sorted(values)
        half = len(values) // 2
        tb = TruthBounds.from_pairs(values[:half], values[len(values) - half:])
        twice = logic.negate(logic.negate(tb))
        assert np.array_equal(twice.values, tb.values)


class TestUnweightedTnorm:
    def test_lukasiewicz_example(self):
        assert logic.tnorm("luk", [[0.7], [0.6]])[0] == pytest.approx(0.3, abs=1e-12)

    def test_product_example(self):
        assert logic.tnorm("prod", [[0.5], [0.5]])[0] == 0.25

    def test_identity_element(self):
        # luk computes 1 - (1 - t), one ulp off t for non-dyadic grid values
        for kind in KINDS:
            out = logic.tnorm(kind, np.stack([np.ones_like(GRID), GRID]))
            np.testing.assert_allclose(out, GRID, atol=1e-9)

    def test_annihilator(self):
        for kind in KINDS:
            out = logic.tnorm(kind, np.stack([np.zeros_like(GRID), GRID]))
            np.testing.assert_allclose(out, np.zeros_like(GRID), atol=1e-9)

    def test_commutative_on_grid(self):
        pairs = np.array(list(itertools.product(GRID, GRID)))
        for kind in KINDS:
            ab = logic.tnorm(kind, pairs.T)
            ba = logic.tnorm(kind, pairs.T[::-1])
            np.testing.assert_array_equal(ab, ba)

    def test_associative_on_grid(self):
        triples = np.array(list(itertools.product(GRID, GRID, GRID)))
        a, b, c = triples.T
        for kind in KINDS:
            left = logic.tnorm(kind, np.stack([logic.tnorm(kind, np.stack([a, b])), c]))
            right = logic.tnorm(kind, np.stack([a, logic.tnorm(kind, np.stack([b, c]))]))
            np.testing.assert_allclose(left, right, atol=1e-9)

    def test_monotone_on_grid(self):
        for kind in KINDS:
            for s in GRID:
                outs = logic.tnorm(kind, np.stack([GRID, np.full_like(GRID, s)]))
                assert np.all(np.diff(outs) >= 0)

    def test_lukasiewicz_nilpotency_exact(self):
        t = np.linspace(0, 1, 1001)
        out = logic.tnorm("luk", np.stack([t, 1.0 - t]))
        assert np.all(out == 0.0)


class TestWeightedTnorm:
    def test_lukasiewicz_formula(self):
        out = logic.weighted_tnorm("luk", [[0.5], [1.0]], [[0.8], [0.6]])
        assert out[0] == pytest.approx(0.5, abs=1e-12)

    def test_zero_weight_removes_input(self):
        out = logic.weighted_tnorm("prod", [[1.0], [0.0]], [[0.3], [0.9]])
        assert out[0] == 0.3
        out = logic.weighted_tnorm("luk", [[1.0], [0.0]], [[0.3], [0.9]])
        assert out[0] == pytest.approx(0.3, abs=1e-12)

    def test_smoothmin_symmetric_at_equal_inputs(self):
        for c in GRID:
            out = logic.weighted_tnorm("min", [[1.0], [1.0]], [[c], [c]])
            assert out[0] == pytest.approx(c, abs=1e-12)

    def test_all_ones_reduces_exactly_for_prod_and_luk(self):
        pairs = np.array(list(itertools.product(GRID, GRID))).T
        ones = np.ones_like(pairs)
        for kind in ("prod", "luk"):
            weighted = logic.weighted_tnorm(kind, ones, pairs)
            unweighted = logic.tnorm(kind, pairs)
            np.testing.assert_array_equal(weighted, unweighted)

    def test_smoothmin_tracks_hard_min(self):
        # max deviation of the alpha=-10 smooth minimum from the hard minimum
        # over grid pairs is 0.0274 (at |t1-t2| = 0.15)
        pairs = np.array(list(itertools.product(GRID, GRID))).T
        weighted = logic.weighted_tnorm("min", np.ones_like(pairs), pairs)
        hard = logic.tnorm("min", pairs)
        deviation = np.abs(weighted - hard)
        assert deviation.max() == pytest.approx(0.0273638, abs=1e-6)
        assert np.all(deviation <= 0.028)

    def test_all_weights_zero_is_an_error(self):
        with pytest.raises(ValueError, match="removed"):
            logic.weighted_tnorm("min", [[0.0], [0.0]], [[0.3], [0.9]])

    def test_result_in_unit_interval(self):
        rng = np.random.default_rng(0)
        for kind in KINDS:
            w = rng.uniform(0, 1, (3, 50))
            if kind == "min":
                w[0] = np.maximum(w[0], 1e-3)
            t = rng.uniform(0, 1, (3, 50))
            out = logic.weighted_tnorm(kind, w, t)
            assert np.all((out >= 0) & (out <= 1))

    def test_weighted_luk_can_exceed_unweighted(self):
        # w < 1 weakens the deficit sum, a property of the weighted form
        weighted = logic.weighted_tnorm("luk", [[0.5], [0.5]], [[0.5], [0.5]])
        unweighted = logic.tnorm("luk", [[0.5], [0.5]])
        assert weighted[0] > unweighted[0]


class TestConjoinBounds:
    def test_monotone_kinds_never_need_repair(self):
        rng = np.random.default_rng(1)
        for kind in ("prod", "luk"):
            for _ in range(100):
                inputs = [random_bounds(rng) for _ in range(3)]
                weights = [rng.uniform(0, 1, 6) for _ in range(3)]
                out = logic.conjoin_bounds(kind, inputs, weights)
                assert np.all(out.lower <= out.upper)

    def test_all_true_is_identity_for_min_and_prod(self):
        rng = np.random.default_rng(2)
        tb = random_bounds(rng)
        top = TruthBounds(np.ones(12))
        for kind in ("min", "prod"):
            out = logic.conjoin_bounds(kind, [tb, top])
            np.testing.assert_array_equal(out.values, tb.values)

    def test_smoothmin_crossing_is_repaired_to_midpoint(self):
        # crafted crossing: smoothmin is non-monotonic, so a wide interval
        # paired against a point truth can push the lower above the upper
        found = False
        for l1 in GRID:
            for u1 in GRID[GRID >= l1]:
                a = TruthBounds(np.array([l1, u1]))
                b = TruthBounds(np.array([0.5, 0.5]))
                w = [np.array([1.0]), np.array([0.3])]
                raw_l = logic.weighted_tnorm("min", np.array([[w[0][0]], [w[1][0]]]),
                                             np.array([[a.lower[0]], [b.lower[0]]]))[0]
                raw_u = logic.weighted_tnorm("min", np.array([[w[0][0]], [w[1][0]]]),
                                             np.array([[a.upper[0]], [b.upper[0]]]))[0]
                out = logic.conjoin_bounds("min", [a, b], w)
                assert out.lower[0] <= out.upper[0]
                if raw_l > raw_u:
                    found = True
                    mid = 0.5 * (raw_l + raw_u)
                    assert out.lower[0] == pytest.approx(mid, abs=1e-12)
                    assert out.upper[0] == pytest.approx(mid, abs=1e-12)
        assert found, "no crossing instance found on the search grid"

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError, match="imension"):
            logic.conjoin_bounds("luk", [TruthBounds(np.zeros(4)), TruthBounds(np.zeros(6))])


class TestDisjoinBounds:
    def test_de_morgan_identity_holds_by_construction(self):
        rng = np.random.default_rng(3)
        for kind in KINDS:
            inputs = [random_bounds(rng) for _ in range(2)]
            direct = logic.disjoin_bounds(kind, inputs)
            manual = logic.negate(
                logic.conjoin_bounds(kind, [logic.negate(b) for b in inputs]))
            np.testing.assert_array_equal(direct.values, manual.values)

    def test_disjoin_with_all_false_is_identity_under_min(self):
        rng = np.random.default_rng(4)
        tb = random_bounds(rng)
        bottom = TruthBounds(np.zeros(12))
        out = logic.disjoin_bounds("min", [tb, bottom])
        np.testing.assert_array_equal(out.values, tb.values)

    def test_disjoin_idempotent_under_min_weighted(self):
        rng = np.random.default_rng(5)
        tb = random_bounds(rng)
        ones = [np.ones(6), np.ones(6)]
        out = logic.disjoin_bounds("min", [tb, tb], ones)
        np.testing.assert_allclose(out.values, tb.values, atol=1e-6)

    def test_probabilistic_sum_for_prod(self):
        tb = TruthBounds(np.array([0.5, 0.5]))
        out = logic.disjoin_bounds("prod", [tb, tb])
        np.testing.assert_allclose(out.values, [0.75, 0.75])


class TestEntropy:
    def test_full_interval_has_zero_entropy(self):
        tb = TruthBounds.from_pairs([0.0], [1.0])
        assert logic.entropy_vector(tb)[0] == 0.0

    def test_half_interval(self):
        tb = TruthBounds.from_pairs([0.25], [0.75])
        assert logic.entropy_vector(tb)[0] == pytest.approx(np.log(0.5))

    def test_point_truth_clamped(self):
        tb = TruthBounds.from_pairs([0.3], [0.3])
        assert logic.entropy_vector(tb)[0] == pytest.approx(np.log(1e-9))
        assert np.isfinite(logic.entropy_vector(tb)).all()
