import itertools

import numpy as np
import pytest
from hypothesis import given, strategies as st

from skqe import logic
from skqe.logic import TruthBounds

from conftest import reference_conjoin, reference_negate

GRID = np.arange(0, 21) * 0.05
KINDS = ("min", "prod", "luk")

# dyadic rationals keep 1 - (1 - x) exact in float64
unit_floats = st.integers(0, 2**53).map(lambda k: k / 2**53)


def weighted_conjoin(kind, weights, truths):
    """Point-mode ``conjoin_slots`` of truths stacked on axis 0."""
    w = np.asarray(weights, dtype=np.float64)
    t = np.asarray(truths, dtype=np.float64)
    return logic.conjoin_slots(kind, list(t), list(w), logic.DEFAULT_ALPHA, "point")[0]


def disjoin(kind, xs):
    """De Morgan disjunction of flat bounds with unit weights, composed from
    the slot operators as the model composes it."""
    flipped = [logic.negate_slots(x, "bounds") for x in xs]
    ones = [np.ones_like(x) for x in xs]
    conjoined, _ = logic.conjoin_slots(kind, flipped, ones, logic.DEFAULT_ALPHA, "bounds")
    return logic.negate_slots(conjoined, "bounds")


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
        out = weighted_conjoin("luk", [[0.5], [1.0]], [[0.8], [0.6]])
        assert out[0] == pytest.approx(0.5, abs=1e-12)

    def test_zero_weight_removes_input(self):
        out = weighted_conjoin("prod", [[1.0], [0.0]], [[0.3], [0.9]])
        assert out[0] == 0.3
        out = weighted_conjoin("luk", [[1.0], [0.0]], [[0.3], [0.9]])
        assert out[0] == pytest.approx(0.3, abs=1e-12)

    def test_smoothmin_symmetric_at_equal_inputs(self):
        for c in GRID:
            out = weighted_conjoin("min", [[1.0], [1.0]], [[c], [c]])
            assert out[0] == pytest.approx(c, abs=1e-12)

    def test_all_ones_reduces_exactly_for_prod_and_luk(self):
        pairs = np.array(list(itertools.product(GRID, GRID))).T
        ones = np.ones_like(pairs)
        for kind in ("prod", "luk"):
            weighted = weighted_conjoin(kind, ones, pairs)
            unweighted = logic.tnorm(kind, pairs)
            np.testing.assert_array_equal(weighted, unweighted)

    def test_smoothmin_tracks_hard_min(self):
        # max deviation of the alpha=-10 smooth minimum from the hard minimum
        # over grid pairs is 0.0274 (at |t1-t2| = 0.15)
        pairs = np.array(list(itertools.product(GRID, GRID))).T
        weighted = weighted_conjoin("min", np.ones_like(pairs), pairs)
        hard = logic.tnorm("min", pairs)
        deviation = np.abs(weighted - hard)
        assert deviation.max() == pytest.approx(0.0273638, abs=1e-6)
        assert np.all(deviation <= 0.028)

    def test_all_weights_zero_is_an_error(self):
        with pytest.raises(ValueError, match="removed"):
            weighted_conjoin("min", [[0.0], [0.0]], [[0.3], [0.9]])

    def test_result_in_unit_interval(self):
        rng = np.random.default_rng(0)
        for kind in KINDS:
            w = rng.uniform(0, 1, (3, 50))
            if kind == "min":
                w[0] = np.maximum(w[0], 1e-3)
            t = rng.uniform(0, 1, (3, 50))
            out = weighted_conjoin(kind, w, t)
            assert np.all((out >= 0) & (out <= 1))

    def test_weighted_luk_can_exceed_unweighted(self):
        # w < 1 weakens the deficit sum, a property of the weighted form
        weighted = weighted_conjoin("luk", [[0.5], [0.5]], [[0.5], [0.5]])
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
                raw_l = weighted_conjoin("min", np.array([[w[0][0]], [w[1][0]]]),
                                         np.array([[a.lower[0]], [b.lower[0]]]))[0]
                raw_u = weighted_conjoin("min", np.array([[w[0][0]], [w[1][0]]]),
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
        if mode == "bounds":  # a point truth beside wide intervals makes min cross
            xs[1][:, 6:] = xs[1][:, :6]
        # one weight per dimension, shared by its lower and upper, as in the model
        ws = [np.tile(rng.uniform(0.1, 1.0, (8, 6)), 2) for _ in range(3)]
        got, repairs = logic.conjoin_slots(kind, xs, ws, logic.DEFAULT_ALPHA, mode)
        assert (repairs > 0) == (kind == "min" and mode == "bounds")
        want_repairs = 0
        for row in range(xs[0].shape[0]):
            want, row_repairs = reference_conjoin(kind, [x[row] for x in xs],
                                                  [w[row] for w in ws],
                                                  logic.DEFAULT_ALPHA, mode)
            np.testing.assert_allclose(got[row], want, rtol=1e-12, atol=1e-14)
            want_repairs += row_repairs
        assert repairs == want_repairs

    @pytest.mark.parametrize("mode", ["bounds", "point"])
    def test_negate_slots(self, mode):
        xs = self._slots(np.random.default_rng(6), mode)
        got = logic.negate_slots(xs, mode)
        for row in range(xs.shape[0]):
            np.testing.assert_array_equal(got[row], reference_negate(xs[row], mode))


class TestDeMorganDisjunction:
    def test_de_morgan_gives_the_dual_conorm(self):
        # not(T(not a, not b)) per slot: the probabilistic sum for prod and the
        # bounded sum for luk, on lowers and uppers alike
        rng = np.random.default_rng(3)
        conorms = {"prod": lambda a, b: a + b - a * b, "luk": lambda a, b: np.minimum(1.0, a + b)}
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
