import numpy as np
import pytest

from skqe import algebra, kg, oracle
from skqe.algebra import Anchor, Conjoin, Disjoin, Negate, PlanBuilder, QueryInstance, Relate
from skqe.errors import DataError

from conftest import random_instance


def answers(instance: QueryInstance, index: kg.AdjacencyIndex) -> set[int]:
    """The oracle's answers: the structure's cached plan under the instance's bindings."""
    return oracle.eval_plan(algebra.structure_plan(instance.structure),
                            instance.anchors, instance.relations, index)


class TestFollow:
    def test_union_of_tails(self, toy_graph):
        index = kg.build_index(toy_graph)
        assert oracle.follow(0, {0}, index) == {1, 2}

    def test_empty_input(self, toy_graph):
        index = kg.build_index(toy_graph)
        assert oracle.follow(0, set(), index) == set()

    def test_union_semantics_with_edgeless_member(self, toy_graph):
        index = kg.build_index(toy_graph)
        assert oracle.follow(0, {0, 1}, index) == {1, 2}

    def test_monotone_in_input(self, small_graph, small_index):
        rng = np.random.default_rng(4)
        for _ in range(50):
            smaller = set(rng.choice(50, size=5, replace=False).tolist())
            larger = smaller | set(rng.choice(50, size=5, replace=False).tolist())
            rel = int(rng.integers(3))
            assert oracle.follow(rel, smaller, small_index) <= \
                   oracle.follow(rel, larger, small_index)


class TestEvalPlan:
    def test_winners_without_other_award(self):
        # two awards: winners {x, y} and {y}; keep winners of the first only
        graph = kg.KnowledgeGraph(
            kg.Vocabulary(["award1", "award2", "x", "y"]),
            kg.Vocabulary(["won_by"]),
        )
        graph.add_triple(0, 0, 2, "train")
        graph.add_triple(0, 0, 3, "train")
        graph.add_triple(1, 0, 3, "train")
        assert answers(QueryInstance("2in", (0, 1), (0, 0)), kg.build_index(graph)) == {2}

    def test_double_negation_is_identity(self, small_graph, small_index):
        base = algebra.structure_plan("1p")
        wrapped = PlanBuilder(base.nodes)
        inner = wrapped.add(Negate(base.sink))
        wrapped = wrapped.build(wrapped.add(Negate(inner)))
        for anchor, relation in [(0, 0), (3, 1), (7, 2)]:
            assert oracle.eval_plan(wrapped, (anchor,), (relation,), small_index) == \
                   oracle.eval_plan(base, (anchor,), (relation,), small_index)

    def test_union_of_disjoint_answers(self):
        graph = kg.KnowledgeGraph(
            kg.Vocabulary(["a", "b", "c", "d"]),
            kg.Vocabulary(["r", "q"]),
        )
        graph.add_triple(0, 0, 1, "train")
        graph.add_triple(2, 1, 3, "train")
        assert answers(QueryInstance("2u", (0, 2), (0, 1)), kg.build_index(graph)) == {1, 3}

    def test_negated_sink_materializes_complement(self, toy_graph):
        plan = PlanBuilder()
        anchor = plan.add(Anchor(0))
        relate = plan.add(Relate(0, anchor))
        plan = plan.build(plan.add(Negate(relate)))
        assert oracle.eval_plan(plan, (0,), (0,), kg.build_index(toy_graph)) == {0, 3}


class TestExhaustiveEquivalence:
    def test_single_hop_equals_follow(self, small_graph, small_index):
        rng = np.random.default_rng(7)
        for _ in range(30):
            instance = random_instance("1p", rng, 50, 3)
            assert oracle.exhaustive_eval(instance, small_graph) == \
                   oracle.follow(instance.relations[0], {instance.anchors[0]}, small_index)

    def test_chain_on_path_graph(self):
        graph = kg.KnowledgeGraph(
            kg.Vocabulary(["a", "b", "c", "d"]),
            kg.Vocabulary(["r"]),
        )
        graph.add_triple(0, 0, 1, "train")
        graph.add_triple(1, 0, 2, "train")
        graph.add_triple(2, 0, 3, "train")
        instance = QueryInstance("3p", (0,), (0, 0, 0))
        assert oracle.exhaustive_eval(instance, graph) == {3}

    @pytest.mark.parametrize("structure", algebra.STRUCTURE_NAMES)
    def test_plan_evaluation_matches_brute_force(self, structure, small_graph, small_index):
        rng = np.random.default_rng(algebra.STRUCTURE_NAMES.index(structure))
        for _ in range(25):
            instance = random_instance(structure, rng, 50, 3)
            by_plan = answers(instance, small_index)
            by_enumeration = oracle.exhaustive_eval(instance, small_graph)
            assert by_plan == by_enumeration

    def test_guard_refuses_oversized_graphs(self):
        graph = kg.KnowledgeGraph(kg.Vocabulary([f"e{i}" for i in range(10)]),
                                  kg.Vocabulary(["r"]))
        graph.add_triple(0, 0, 1, "train")
        instance = QueryInstance("3p", (0,), (0, 0, 0))
        old = oracle.EXHAUSTIVE_GUARD
        oracle.EXHAUSTIVE_GUARD = 10
        try:
            with pytest.raises(DataError, match="too large"):
                oracle.exhaustive_eval(instance, graph)
        finally:
            oracle.EXHAUSTIVE_GUARD = old


class TestDeMorgan:
    def test_set_level_identity(self, small_graph, small_index):
        direct = PlanBuilder()
        a = direct.add(Anchor(0))
        ra = direct.add(Relate(0, a))
        b = direct.add(Anchor(1))
        rb = direct.add(Relate(1, b))
        direct = direct.build(direct.add(Disjoin((ra, rb))))

        rewritten = PlanBuilder()
        a2 = rewritten.add(Anchor(0))
        ra2 = rewritten.add(Relate(0, a2))
        na = rewritten.add(Negate(ra2))
        b2 = rewritten.add(Anchor(1))
        rb2 = rewritten.add(Relate(1, b2))
        nb = rewritten.add(Negate(rb2))
        conj = rewritten.add(Conjoin((na, nb)))
        rewritten = rewritten.build(rewritten.add(Negate(conj)))

        rng = np.random.default_rng(11)
        for _ in range(50):
            left = random_instance("1p", rng, 50, 3)
            right = random_instance("1p", rng, 50, 3)
            bindings = ((left.anchors[0], right.anchors[0]),
                        (left.relations[0], right.relations[0]), small_index)
            assert oracle.eval_plan(direct, *bindings) == oracle.eval_plan(rewritten, *bindings)


class TestDnfBranches:
    @pytest.mark.parametrize("splits", [kg.SPLITS, ("train",)], ids=["full", "train"])
    @pytest.mark.parametrize("structure", algebra.UNION_STRUCTURES)
    def test_branch_answers_union_to_the_plan(self, structure, splits, small_graph):
        index = kg.build_index(small_graph, splits)
        branches = algebra.plan_branches(structure, "dnf")
        assert len(branches) == 2
        rng = np.random.default_rng(algebra.STRUCTURE_NAMES.index(structure))
        nonempty = 0
        for _ in range(100):
            instance = random_instance(structure, rng, 50, 3)
            bindings = (instance.anchors, instance.relations, index)
            full = oracle.eval_plan(algebra.structure_plan(structure), *bindings)
            assert set().union(*(oracle.eval_plan(b, *bindings) for b in branches)) == full
            nonempty += bool(full)
        assert nonempty >= 20


class TestSampling:
    def test_entailment_mode_has_no_hard_answers(self, small_graph):
        dataset = oracle.sample_dataset(
            small_graph, algebra.STRUCTURE_NAMES, 10, seed=3, mode="entailment")
        assert dataset.samples
        assert all(not s.hard for s in dataset.samples)
        assert all(s.easy for s in dataset.samples)

    def test_generalization_mode_requires_hard_answers(self, small_graph):
        dataset = oracle.sample_dataset(
            small_graph, ("2p", "3p", "2i"), 15, seed=3, mode="generalization")
        assert all(len(s.hard) >= 1 for s in dataset.samples)

    def test_train_mode_answers_come_from_train_graph(self, small_graph):
        train_index = kg.build_index(small_graph, ("train",))
        dataset = oracle.sample_dataset(
            small_graph, ("1p", "2p"), 15, seed=3, mode="train")
        for sample in dataset.samples:
            assert set(sample.easy) == answers(sample.instance, train_index)
            assert sample.hard == ()

    def test_negation_ratio(self, small_graph):
        dataset = oracle.sample_dataset(
            small_graph, ("2i", "2in"), 20, seed=5, mode="entailment",
            negation_frac=0.1)
        counts = dataset.metadata["counts"]
        assert counts["2i"] == 20
        assert counts["2in"] == 2

    def test_deterministic_for_seed(self, small_graph):
        one = oracle.sample_dataset(small_graph, ("2p",), 10, seed=9, mode="entailment")
        two = oracle.sample_dataset(small_graph, ("2p",), 10, seed=9, mode="entailment")
        assert [s.instance for s in one.samples] == [s.instance for s in two.samples]

    def test_easy_hard_partition_verified(self, small_graph):
        dataset = oracle.sample_dataset(
            small_graph, algebra.STRUCTURE_NAMES, 5, seed=13, mode="generalization")
        full_index = kg.build_index(small_graph)
        for sample in dataset.samples:
            assert not (set(sample.easy) & set(sample.hard))
            assert set(sample.answers) == answers(sample.instance, full_index)


class TestDatasetIO:
    def test_round_trip(self, tmp_path, small_graph):
        dataset = oracle.sample_dataset(
            small_graph, ("1p", "pin"), 8, seed=2, mode="generalization")
        path = tmp_path / "queries.jsonl"
        oracle.write_dataset(dataset, small_graph, path)
        loaded = oracle.read_dataset(path, small_graph)
        assert [s.instance for s in loaded.samples] == [s.instance for s in dataset.samples]
        assert [s.easy for s in loaded.samples] == [s.easy for s in dataset.samples]
        assert loaded.metadata["mode"] == "generalization"

    def test_graph_hash_mismatch_detected(self, tmp_path, small_graph):
        dataset = oracle.sample_dataset(small_graph, ("1p",), 5, seed=2, mode="entailment")
        path = tmp_path / "queries.jsonl"
        oracle.write_dataset(dataset, small_graph, path)
        other = kg.generate_synthetic(50, 3, 2.0, 0.1, 0.1, seed=99)
        with pytest.raises(DataError, match="different graph"):
            oracle.read_dataset(path, other)
