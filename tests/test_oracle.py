import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from skqe import algebra, kg, oracle
from skqe.algebra import Anchor, Conjoin, Disjoin, QueryInstance, QueryPlan, Relate
from skqe.errors import DataError

from conftest import (
    REFERENCE_MODES,
    UNION_STRUCTURES,
    binding_arrays,
    oracle_answers,
    oracle_columns,
    random_instance,
    reference_eval_plan,
    reference_forward,
    reference_incoming_table,
    reference_sample_dataset,
    reference_walk_instance,
)

# every split set a mode of ``DATASET_MODES`` answers on
SPLIT_SETS = sorted({tuple(s) for row in oracle.DATASET_MODES.values() for s in row})


def answers(instance: QueryInstance, index: kg.AdjacencyIndex) -> set[int]:
    """The oracle's answers: the structure's cached plan under the instance's bindings."""
    return oracle_answers(algebra.structure_plan(instance.structure),
                          instance.anchors, instance.relations, index)


class TestRelate:
    """A Relate follows its relation from every member of its input set."""

    def test_union_of_tails(self, toy_graph):
        index = kg.build_index(toy_graph)
        assert answers(QueryInstance("1p", (0,), (0,)), index) == {1, 2}

    def test_empty_input(self, toy_graph):
        # d has no out-edge, so the second hop follows an empty set
        index = kg.build_index(toy_graph)
        assert answers(QueryInstance("2p", (3,), (0, 0)), index) == set()

    def test_union_semantics_with_edgeless_member(self, toy_graph):
        # a -r-> {b, c}; b -q-> d, and c has no q edge
        index = kg.build_index(toy_graph)
        assert answers(QueryInstance("2p", (0,), (0, 1)), index) == {3}


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

    def test_union_of_disjoint_answers(self):
        graph = kg.KnowledgeGraph(
            kg.Vocabulary(["a", "b", "c", "d"]),
            kg.Vocabulary(["r", "q"]),
        )
        graph.add_triple(0, 0, 1, "train")
        graph.add_triple(2, 1, 3, "train")
        assert answers(QueryInstance("2u", (0, 2), (0, 1)), kg.build_index(graph)) == {1, 3}


def draw_columns(data, structure: str, entities, num_relations: int) -> list:
    """Arbitrary (anchors, relations) bindings of ``structure``, not only
    walked ones: anchors drawn from ``entities``, any relation ids, and some
    columns repeated."""
    template = algebra.TEMPLATES[structure]
    column = st.tuples(
        st.tuples(*[st.sampled_from(entities)] * template.num_anchors),
        st.tuples(*[st.integers(0, num_relations - 1)] * template.num_relations))
    columns = data.draw(st.lists(column, max_size=6))
    if columns:
        columns += data.draw(st.lists(st.sampled_from(columns), max_size=3))
    return columns


class TestBatchedOracle:
    """Every column of one ``eval_plan`` call against the per-instance
    references: the recursive set walk over its own dict, and brute force."""

    @pytest.mark.parametrize("splits", SPLIT_SETS, ids="+".join)
    @pytest.mark.parametrize("structure", algebra.STRUCTURE_NAMES)
    @settings(derandomize=True, max_examples=15, deadline=None)
    @given(data=st.data())
    def test_each_column_is_the_reference_answer(self, structure, splits, small_graph, data):
        index = kg.build_index(small_graph, splits)
        forward = reference_forward(small_graph, splits)
        # entities without an out-edge, twice as likely as the others
        edgeless = sorted(set(range(50)) - {h for h, _ in forward})
        columns = draw_columns(data, structure, edgeless * 2 + list(range(50)), 3)
        for plan in {algebra.structure_plan(structure), *algebra.plan_branches(structure, "dnf")}:
            for chosen in (columns, columns[:1], []):  # some, one and zero columns
                assert oracle_columns(plan, chosen, index) == \
                    [reference_eval_plan(plan, *b, forward) for b in chosen]

    @pytest.mark.parametrize("structure", algebra.STRUCTURE_NAMES)
    @settings(derandomize=True, max_examples=15, deadline=None)
    @given(data=st.data())
    def test_each_column_is_the_brute_force_answer(self, structure, toy_graph, data):
        columns = draw_columns(data, structure, range(4), 2)
        plan = algebra.structure_plan(structure)
        for splits in SPLIT_SETS:
            index = kg.build_index(toy_graph, splits)
            forward = reference_forward(toy_graph, splits)
            got = oracle_columns(plan, columns, index)
            assert got == [reference_eval_plan(plan, *b, forward) for b in columns]
            assert got == [oracle.exhaustive_eval(QueryInstance(structure, *b), toy_graph, splits)
                           for b in columns]

    def test_columns_are_keyed_by_column_then_entity(self, toy_graph):
        plan = algebra.structure_plan("1p")
        index = kg.build_index(toy_graph)
        # a -r-> {b, c}; d has no r edge; b -q-> d
        anchors, relations = binding_arrays(plan, [((0,), (0,)), ((3,), (0,)), ((1,), (1,))])
        assert oracle.eval_plan(plan, anchors, relations, index).tolist() == \
            [0 * 4 + 1, 0 * 4 + 2, 2 * 4 + 3]


class TestReferenceParity:
    """The one-pass evaluator and the plan walk against the recursive
    evaluator and the template walk kept in conftest."""

    @pytest.mark.parametrize("splits", [kg.SPLITS, ("train",)], ids=["full", "train"])
    @pytest.mark.parametrize("structure", algebra.STRUCTURE_NAMES)
    def test_eval_plan_matches_recursive_reference(self, structure, splits, small_graph):
        index = kg.build_index(small_graph, splits)
        forward = reference_forward(small_graph, splits)
        plans = {algebra.structure_plan(structure), *algebra.plan_branches(structure, "dnf")}
        rng = np.random.default_rng([5, algebra.STRUCTURE_NAMES.index(structure)])
        # sampled queries have answers on the full graph, train-mode ones on its train edges
        bindings = [(s.instance.anchors, s.instance.relations)
                    for mode in ("generalization", "train")
                    for s in oracle.sample_dataset(small_graph, (structure,), 10, seed=5,
                                                   mode=mode).samples]
        for _ in range(30):
            instance = random_instance(structure, rng, 50, 3)
            bindings.append((instance.anchors, instance.relations))
        nonempty = 0
        for plan in plans:
            got = oracle_columns(plan, bindings, index)
            assert got == [reference_eval_plan(plan, *b, forward) for b in bindings]
            nonempty += sum(map(bool, got))
        assert nonempty >= 10

    @pytest.mark.parametrize("join", [Conjoin, Disjoin])
    @pytest.mark.parametrize("negated", list(itertools.product((False, True), repeat=3)))
    def test_eval_plan_matches_reference_on_every_join_case(self, join, negated, small_graph,
                                                            small_index):
        # three one-hop inputs, each negated or not: conjunctions with 0-2 of
        # them negated and a disjunction of all three evaluate; a conjunction
        # that negates every input is refused, and a disjunction has no field
        # that could negate one
        nodes = []
        for slot in range(3):
            nodes += [Anchor(slot), Relate(slot, len(nodes))]
        parts = (1, 3, 5)
        flagged = tuple(i for i, negate in zip(parts, negated) if negate)
        if join is Disjoin and flagged:
            with pytest.raises(TypeError):
                Disjoin(parts, flagged)
            return
        if all(negated):
            with pytest.raises(DataError, match="are not a proper subset of its inputs"):
                QueryPlan((*nodes, Conjoin(parts, flagged)))
            return
        plan = QueryPlan((*nodes, Conjoin(parts, flagged) if flagged else join(parts)))
        rng = np.random.default_rng(12)
        bindings = [(tuple(int(x) for x in rng.integers(0, 50, 3)),
                     tuple(int(x) for x in rng.permutation(3))) for _ in range(20)]
        forward = reference_forward(small_graph)
        assert oracle_columns(plan, bindings, small_index) == \
            [reference_eval_plan(plan, *b, forward) for b in bindings]

    @pytest.mark.parametrize("seed", [3, 8])
    @pytest.mark.parametrize("mode", oracle.DATASET_MODES)
    def test_sample_dataset_matches_dynamic_walk(self, mode, seed, small_graph):
        got = oracle.sample_dataset(small_graph, algebra.STRUCTURE_NAMES, 12, seed, mode)
        want, _, _ = reference_sample_dataset(small_graph, algebra.STRUCTURE_NAMES, 12,
                                              seed, mode)
        assert got.samples and got == want

    def test_thinned_negation_matches_dynamic_walk(self, small_graph):
        got = oracle.sample_dataset(small_graph, algebra.STRUCTURE_NAMES, 12, seed=4,
                                    mode="generalization", negation_frac=0.5)
        want, _, _ = reference_sample_dataset(small_graph, algebra.STRUCTURE_NAMES, 12,
                                              4, "generalization", negation_frac=0.5)
        assert got.metadata["counts"]["2in"] == 6
        assert got == want

    @pytest.mark.parametrize("mode", oracle.DATASET_MODES)
    def test_retry_limit_inside_a_round_matches_dynamic_walk(self, mode, small_graph,
                                                             monkeypatch):
        # rounds of 1, 2, ... batches of 256 walks; a 3 x 150 = 450 attempt
        # limit falls inside the second round's one batch
        monkeypatch.setattr(oracle, "RETRY_FACTOR", 3)
        got = oracle.sample_dataset(small_graph, algebra.STRUCTURE_NAMES, 150, 7, mode)
        want, attempts, _ = reference_sample_dataset(small_graph, algebra.STRUCTURE_NAMES, 150,
                                                     7, mode)
        assert got == want and got.metadata["attempts"] == attempts
        short = [s for s, n in got.metadata["counts"].items() if n < 150]
        assert short and all(attempts[s] == 450 for s in short)
        assert 256 < 450 < 512 and oracle.WALK_BATCH == 256

    @pytest.mark.parametrize("mode", oracle.DATASET_MODES)
    def test_count_reached_inside_a_round_matches_dynamic_walk(self, mode, small_graph):
        got = oracle.sample_dataset(small_graph, algebra.STRUCTURE_NAMES, 12, 11, mode)
        want, attempts, _ = reference_sample_dataset(small_graph, algebra.STRUCTURE_NAMES, 12,
                                                     11, mode)
        assert got == want and got.metadata["attempts"] == attempts
        # some structure gets its count past the first round, inside a batch
        assert any(n == 12 and attempts[s] > oracle.WALK_BATCH and attempts[s] % oracle.WALK_BATCH
                   for s, n in got.metadata["counts"].items())

    @pytest.mark.parametrize("splits", [kg.SPLITS, ("train",)], ids=["full", "train"])
    def test_walk_table_built_once_per_index(self, splits, small_graph):
        index = kg.build_index(small_graph, splits)
        assert index.walk_table is index.walk_table and index.tails is index.tails
        offsets, heads, relations = index.walk_table
        assert all(a.dtype == np.int64 for a in (offsets, heads, relations, index.tails))
        assert offsets.shape == (51,) and offsets[0] == 0 and offsets[-1] == len(heads)
        want = reference_incoming_table(reference_forward(small_graph, splits))
        for tail in range(50):
            rows = slice(offsets[tail], offsets[tail + 1])
            assert list(zip(heads[rows].tolist(), relations[rows].tolist())) == \
                want.get(tail, [])
        assert index.tails.tolist() == sorted(want)

    @pytest.mark.parametrize("seed", [3, 8])
    def test_attempts_per_structure_match_reference(self, seed, small_graph, tmp_path):
        got = oracle.sample_dataset(small_graph, algebra.STRUCTURE_NAMES, 12, seed,
                                    "generalization")
        _, attempts, _ = reference_sample_dataset(small_graph, algebra.STRUCTURE_NAMES, 12,
                                                  seed, "generalization")
        assert got.metadata["attempts"] == attempts
        assert all(attempts[s] >= got.metadata["counts"][s] for s in attempts)
        path = tmp_path / "queries.jsonl"
        oracle.write_dataset(got, small_graph, path)
        assert oracle.read_dataset(path, small_graph).metadata["attempts"] == attempts


class TestBatchedWalks:
    """The sampler's random stream: one uniform matrix per ``WALK_BATCH``
    attempts, walked with numpy over the walk table."""

    @staticmethod
    def dead_end_graph():
        """b -r-> a, with ``a`` the last entity id: every 2p walk ends at ``b``,
        which has no incoming edge, so every 2p attempt dies at its second
        step, at an offset equal to the table's length."""
        graph = kg.KnowledgeGraph(kg.Vocabulary(["a", "b"]), kg.Vocabulary(["r"]))
        graph.add_triple(1, 0, 0, "train")
        return graph

    def test_walk_into_an_entity_without_incoming_edges_dies(self):
        graph = self.dead_end_graph()
        index = kg.build_index(graph)
        assert index.walk_table.offsets.tolist() == [0, 1, 1]
        rows = 1 + len(algebra.TEMPLATES["2p"].atoms)
        for u in (0.0, 0.5, np.nextafter(1.0, 0.0)):
            plan = algebra.structure_plan("2p")
            batch = oracle._walk_batch(plan, index, np.full((rows, 5), u))
            assert batch.alive.tolist() == [False] * 5
            assert oracle._keepable(plan, batch, index, index) == {}

    def test_dead_attempts_are_counted(self, monkeypatch):
        calls = []
        walk_instance = oracle._walk_instance

        def recorded(*args):
            calls.append(walk_instance(*args))
            return calls[-1]

        monkeypatch.setattr(oracle, "_walk_instance", recorded)
        graph = self.dead_end_graph()
        index = kg.build_index(graph, ("train",))
        got = oracle.sample_queries(graph, "2p", 2, 0, index, index)
        assert got == [] and got.attempts == 2 * oracle.RETRY_FACTOR
        assert calls == [None] * got.attempts

    def test_rounds_double_up_to_their_cap(self, small_graph, monkeypatch):
        widths = []
        walk_batch = oracle._walk_batch

        def recorded(plan, index, draws):
            widths.append(draws.shape[1])
            return walk_batch(plan, index, draws)

        monkeypatch.setattr(oracle, "_walk_batch", recorded)
        monkeypatch.setattr(oracle, "ROUND_BATCHES", 2)
        # 3in holds fewer than 40 test queries on this graph, so it spends
        # its 4,000 attempts: rounds of 1, 2, 2, ... batches, the last cut to 1
        got = oracle.sample_dataset(small_graph, ("3in",), 40, 5, "test")
        want, attempts, _ = reference_sample_dataset(small_graph, ("3in",), 40, 5, "test")
        assert got == want and attempts["3in"] == 4000
        assert widths == [256] + [512] * 7 + [256]

    @pytest.mark.parametrize("mode", oracle.DATASET_MODES)
    def test_same_request_twice_gives_identical_files(self, mode, small_graph, tmp_path):
        paths = [tmp_path / "one.jsonl", tmp_path / "two.jsonl"]
        for path in paths:
            oracle.write_dataset(
                oracle.sample_dataset(small_graph, algebra.STRUCTURE_NAMES, 10, 6, mode),
                small_graph, path)
        assert paths[0].read_bytes() == paths[1].read_bytes()

    @pytest.mark.parametrize("structure", ["1p", "2p", "pi", "2in", "up"])
    def test_full_request_is_a_prefix_of_any_larger_one(self, structure, small_graph):
        index = kg.build_index(small_graph, ("train",))
        large = oracle.sample_queries(small_graph, structure, 30, 2, index, index)
        for k in (1, 7, 20):
            small = oracle.sample_queries(small_graph, structure, k, 2, index, index)
            assert len(small) == k and small == large[:k]
        assert len(large) == 30

    def test_largest_draw_stays_below_every_option_count(self, small_graph):
        u = np.nextafter(1.0, 0.0)
        for splits in (kg.SPLITS, ("train",)):
            index = kg.build_index(small_graph, splits)
            counts = set(np.diff(index.walk_table.offsets).tolist()) | {len(index.tails)}
            counts.discard(0)
            for n in counts:
                assert int(u * n) == n - 1
                assert int(np.floor(np.float64(u) * np.int64(n))) == n - 1


class TestAnswerBound:
    """``answer_bound`` against ``eval_plan``, and the walks it prunes."""

    @staticmethod
    def awards_index():
        """award1 is won by x and y, award2 by y."""
        graph = kg.KnowledgeGraph(kg.Vocabulary(["award1", "award2", "x", "y"]),
                                  kg.Vocabulary(["won_by"]))
        for head, tail in [(0, 2), (0, 3), (1, 3)]:
            graph.add_triple(head, 0, tail, "train")
        return kg.build_index(graph)

    @staticmethod
    def bounds(plan, instances, index) -> np.ndarray:
        anchors = np.array([i.anchors for i in instances], dtype=np.int64).T
        relations = np.array([i.relations for i in instances], dtype=np.int64).T
        return oracle.answer_bound(plan, anchors, relations, index)

    @pytest.mark.parametrize("splits", [kg.SPLITS, ("train",), ("valid",)],
                             ids=["full", "train", "valid"])
    def test_out_degree_counts_every_pair(self, splits, small_graph):
        index = kg.build_index(small_graph, splits)
        forward = reference_forward(small_graph, splits)
        pairs = list(itertools.product(range(50), range(3)))
        heads, relations = np.array(pairs, dtype=np.int64).T
        start, degree = index.out_rows(heads, relations)
        want = [len(forward.get(pair, ())) for pair in pairs]
        assert degree.tolist() == want
        assert 0 in want and max(want) > 1
        tails = index.out_table.tails
        assert [tuple(tails[a:a + d].tolist()) for a, d in zip(start, degree)] == \
            [forward.get(pair, ()) for pair in pairs]
        # one row per (head, relation) pair with an edge, and the sentinel
        assert len(index.out_table.keys) == len(forward) + 1

    def test_index_without_edges_has_degree_zero(self, toy_graph):
        index = kg.build_index(toy_graph, ("valid",))
        _, got = index.out_rows(np.arange(4, dtype=np.int64), np.zeros(4, dtype=np.int64))
        assert got.tolist() == [0] * 4

    def test_rules_on_a_small_graph(self):
        index = self.awards_index()

        def bound(structure, anchors, relations):
            return self.bounds(algebra.structure_plan(structure),
                               [QueryInstance(structure, anchors, relations)], index).tolist()

        assert bound("1p", (0,), (0,)) == [2.0]
        assert bound("2i", (0, 1), (0, 0)) == [1.0]
        # {x, y} less the walked entity y, which award2's negated edge reaches
        assert bound("2in", (0, 1), (0, 0)) == [1.0]
        assert bound("2in", (1, 0), (0, 0)) == [0.0]
        assert bound("2p", (2,), (0, 0)) == [0.0]  # x wins nothing
        assert bound("2p", (0,), (0, 0)) == [np.inf]
        assert bound("inp", (1, 0), (0, 0, 0)) == [0.0]  # {y} less y, then followed
        assert bound("pin", (0, 1), (0, 0, 0)) == [np.inf]
        assert bound("2u", (0, 1), (0, 0)) == [np.inf]

    @pytest.mark.parametrize("splits", [kg.SPLITS, ("train",)], ids=["full", "train"])
    @pytest.mark.parametrize("structure", algebra.STRUCTURE_NAMES)
    def test_bound_covers_every_live_walk(self, structure, splits, small_graph):
        index = kg.build_index(small_graph, splits)
        template, plan = algebra.TEMPLATES[structure], algebra.structure_plan(structure)
        incoming = reference_incoming_table(reference_forward(small_graph, splits))
        tails = sorted(incoming)
        rng = np.random.default_rng([9, algebra.STRUCTURE_NAMES.index(structure)])
        for _ in range(3):
            draws = rng.random((1 + len(template.atoms), oracle.WALK_BATCH))
            walks = [reference_walk_instance(template, tails[int(column[0] * len(tails))],
                                             incoming, iter(column[1:]))
                     for column in draws.T.tolist()]
            live = [walk for walk in walks if walk is not None]
            bound = self.bounds(plan, live, index)
            sizes = [len(found) for found in oracle_columns(
                plan, [(w.anchors, w.relations) for w in live], index)]
            assert (bound >= sizes).all()
            # the batch keeps exactly the live walks bounded by 1 or more
            kept = iter(bound >= 1)
            batch = oracle._walk_batch(plan, index, draws)
            assert batch.alive.tolist() == [walk is not None and bool(next(kept))
                                            for walk in walks]
            for i, walk in enumerate(walks):
                if batch.alive[i]:
                    assert tuple(batch.anchors[:, i].tolist()) == walk.anchors
                    assert tuple(batch.relations[:, i].tolist()) == walk.relations

    @pytest.mark.parametrize("mode", oracle.DATASET_MODES)
    def test_pruning_skips_a_third_of_the_attempts_and_counts_them(self, mode, small_graph,
                                                                   monkeypatch):
        """With and without the prune (``answer_bound`` read as no bound), the
        sampler gives the reference's queries and attempts, once
        ``_walk_instance`` per attempt; the prune spares ``eval_plan`` at
        least a third as many columns as there were attempts."""
        structures = ("2in", "3in", "inp", "pni")
        want, attempts, _ = reference_sample_dataset(small_graph, structures, 12, 3, mode)
        plans = {algebra.structure_plan(s): s for s in structures}
        eval_plan, walk_instance, answer_bound = (
            oracle.eval_plan, oracle._walk_instance, oracle.answer_bound)

        def columns_answered(bound) -> dict[str, int]:
            columns = dict.fromkeys(structures, 0)
            walks = []

            def counted_eval(plan, anchors, *args):
                columns[plans[plan]] += anchors.shape[1]
                return eval_plan(plan, anchors, *args)

            def counted_walk(*args):
                walks.append(walk_instance(*args))
                return walks[-1]

            monkeypatch.setattr(oracle, "eval_plan", counted_eval)
            monkeypatch.setattr(oracle, "_walk_instance", counted_walk)
            monkeypatch.setattr(oracle, "answer_bound", bound)
            got = oracle.sample_dataset(small_graph, structures, 12, 3, mode)
            assert got == want and got.metadata["attempts"] == attempts
            assert len(walks) == sum(attempts.values())
            return columns

        pruned = columns_answered(answer_bound)
        unpruned = columns_answered(lambda plan, anchors, *args: np.full(anchors.shape[1], np.inf))
        for structure in structures:
            assert unpruned[structure] - pruned[structure] >= attempts[structure] / 3, structure


class TestExhaustiveEquivalence:
    def test_single_hop_equals_the_oracle(self, small_graph, small_index):
        rng = np.random.default_rng(7)
        for _ in range(30):
            instance = random_instance("1p", rng, 50, 3)
            assert oracle.exhaustive_eval(instance, small_graph) == answers(instance, small_index)

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


class TestDnfBranches:
    @pytest.mark.parametrize("splits", [kg.SPLITS, ("train",)], ids=["full", "train"])
    @pytest.mark.parametrize("structure", UNION_STRUCTURES)
    def test_branch_answers_union_to_the_plan(self, structure, splits, small_graph):
        index = kg.build_index(small_graph, splits)
        branches = algebra.plan_branches(structure, "dnf")
        assert len(branches) == 2
        rng = np.random.default_rng(algebra.STRUCTURE_NAMES.index(structure))
        instances = [random_instance(structure, rng, 50, 3) for _ in range(100)]
        bindings = [(i.anchors, i.relations) for i in instances]
        full = oracle_columns(algebra.structure_plan(structure), bindings, index)
        parts = [oracle_columns(branch, bindings, index) for branch in branches]
        assert [set().union(*sets) for sets in zip(*parts)] == full
        assert sum(map(bool, full)) >= 20


class TestSampling:
    def test_train_mode_has_no_hard_answers(self, small_graph):
        dataset = oracle.sample_dataset(
            small_graph, algebra.STRUCTURE_NAMES, 10, seed=3, mode="train")
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
            small_graph, ("2i", "2in"), 20, seed=5, mode="train",
            negation_frac=0.1)
        counts = dataset.metadata["counts"]
        assert counts["2i"] == 20
        assert counts["2in"] == 2

    def test_deterministic_for_seed(self, small_graph):
        one = oracle.sample_dataset(small_graph, ("2p",), 10, seed=9, mode="train")
        two = oracle.sample_dataset(small_graph, ("2p",), 10, seed=9, mode="train")
        assert [s.instance for s in one.samples] == [s.instance for s in two.samples]

    def test_easy_hard_partition_verified(self, small_graph):
        dataset = oracle.sample_dataset(
            small_graph, algebra.STRUCTURE_NAMES, 5, seed=13, mode="generalization")
        full_index = kg.build_index(small_graph)
        for sample in dataset.samples:
            assert not (set(sample.easy) & set(sample.hard))
            assert set(sample.answers) == answers(sample.instance, full_index)

    def test_repeated_structure_is_refused(self, small_graph):
        with pytest.raises(DataError, match=r"repeated structures: \['1p'\]"):
            oracle.sample_dataset(small_graph, ("1p", "2p", "1p"), 5, seed=1,
                                  mode="train")

    @pytest.mark.parametrize("frac", [0.0, -1.0, 1.5, float("nan"), float("inf")])
    def test_negation_frac_outside_unit_interval_is_refused(self, frac, small_graph):
        with pytest.raises(DataError, match="negation_frac"):
            oracle.sample_dataset(small_graph, ("2in",), 5, seed=1, mode="train",
                                  negation_frac=frac)

    def test_unknown_mode_is_refused(self, small_graph):
        with pytest.raises(DataError, match="^unknown dataset mode 'entailment'$"):
            oracle.sample_dataset(small_graph, ("1p",), 5, seed=1, mode="entailment")


class TestNestedModes:
    """``valid`` and ``test`` nest the graphs as Query2Box and BetaE do,
    G_train in G_valid in G_test: a valid query is answered on G_valid and a
    test query on G_test, and its hard answers are those that the next
    smaller graph does not give (``REFERENCE_MODES`` spells out both
    graphs)."""

    @pytest.mark.parametrize("structure", algebra.STRUCTURE_NAMES)
    @pytest.mark.parametrize("mode", ["valid", "test"])
    def test_hard_answers_are_absent_on_the_smaller_graph(self, mode, structure, small_graph):
        dataset = oracle.sample_dataset(small_graph, (structure,), 8, 3, mode)
        answered, smaller = (kg.build_index(small_graph, s) for s in REFERENCE_MODES[mode])
        assert dataset.samples
        for sample in dataset.samples:
            easy, hard = set(sample.easy), set(sample.hard)
            everything = answers(sample.instance, answered)
            assert hard and not easy & hard and easy | hard == everything
            assert not hard & answers(sample.instance, smaller)
            assert easy == answers(sample.instance, smaller) & everything

    @pytest.mark.parametrize("structure", algebra.STRUCTURE_NAMES)
    @pytest.mark.parametrize("mode", ["valid", "test"])
    def test_brute_force_agrees(self, mode, structure, small_graph):
        dataset = oracle.sample_dataset(small_graph, (structure,), 3, 5, mode)
        assert dataset.samples
        for sample in dataset.samples:
            everything, smaller = (oracle.exhaustive_eval(sample.instance, small_graph, s)
                                   for s in REFERENCE_MODES[mode])
            assert set(sample.easy) == everything & smaller
            assert set(sample.hard) == everything - smaller


class TestOneRule:
    """``sample_queries`` keeps a query by one rule, read from its two
    indexes' splits, and ``sample_dataset`` builds one index per split set of
    the mode's row."""

    @pytest.mark.parametrize("splits", [("train",), kg.SPLITS], ids=["train", "all"])
    @pytest.mark.parametrize("structure", ["1p", "pi", "2in", "up"])
    def test_two_indexes_over_the_same_splits_act_as_one(self, structure, splits, small_graph):
        shared = kg.build_index(small_graph, splits)
        other = kg.build_index(small_graph, tuple(reversed(splits)))
        one = oracle.sample_queries(small_graph, structure, 20, 4, shared, shared)
        two = oracle.sample_queries(small_graph, structure, 20, 4, shared, other)
        assert one and one == two and one.attempts == two.attempts
        assert all(not sample.hard for sample in two)

    @pytest.mark.parametrize("mode, built", [("train", 1), ("generalization", 2)])
    def test_one_index_per_distinct_split_set(self, mode, built, small_graph, monkeypatch):
        splits = []
        build_index = oracle.build_index
        monkeypatch.setattr(oracle, "build_index",
                            lambda graph, s: splits.append(s) or build_index(graph, s))
        oracle.sample_dataset(small_graph, ("1p", "2in"), 5, seed=1, mode=mode)
        assert len(splits) == built
        assert set(splits) == set(oracle.DATASET_MODES[mode])


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
        dataset = oracle.sample_dataset(small_graph, ("1p",), 5, seed=2, mode="train")
        path = tmp_path / "queries.jsonl"
        oracle.write_dataset(dataset, small_graph, path)
        other = kg.generate_synthetic(50, 3, 2.0, 0.1, 0.1, seed=99)
        with pytest.raises(DataError, match="different graph"):
            oracle.read_dataset(path, other)

    @pytest.mark.parametrize("record, message", [
        ("3", "expected a JSON object, got int"),
        ('["1p"]', "expected a JSON object, got list"),
        ('{"meta": 1}', "'meta' must be a JSON object"),
        ('{"structure": 1, "anchors": ["e1"], "relations": ["r0"]}',
         "query record field 'structure' must be a string, got int"),
        ('{"structure": ["1p"], "anchors": ["e1"], "relations": ["r0"]}',
         "query record field 'structure' must be a string, got list"),
        ('{"structure": "1p", "anchors": "e1", "relations": ["r0"]}',
         "query record field 'anchors' must be a list of names"),
        ('{"structure": "1p", "anchors": ["e1"], "relations": {"r0": 1}}',
         "query record field 'relations' must be a list of names"),
        ('{"structure": "1p", "anchors": ["e1"], "relations": ["r0"], "easy": "e2"}',
         "query record field 'easy' must be a list of names"),
        ('{"structure": "1p", "anchors": ["e1"], "relations": ["r0"], "hard": [3]}',
         "query record field 'hard' must be a list of names"),
        ('{"structure": "1p", "anchors": ["e1", "e2"], "relations": ["r0"]}',
         "1p expects 1 anchors, got 2"),
    ], ids=["int-line", "list-line", "meta-int", "structure-int", "structure-list",
            "anchors-string", "relations-object", "easy-string", "hard-ints",
            "anchor-count"])
    def test_malformed_record_names_its_line(self, record, message, tmp_path, small_graph):
        path = tmp_path / "queries.jsonl"
        path.write_text('{"meta": {"mode": "train"}}\n' + record + "\n")
        with pytest.raises(DataError) as error:
            oracle.read_dataset(path, small_graph)
        assert str(error.value) == f"{path}:2: {message}"

    @pytest.mark.parametrize("mode", ["entailment", "generalisation", "", 1, ["train"]])
    def test_mode_outside_the_dataset_modes_is_refused(self, mode, tmp_path, small_graph):
        dataset = oracle.sample_dataset(small_graph, ("1p",), 5, seed=2, mode="train")
        path = tmp_path / "queries.jsonl"
        oracle.write_dataset(oracle.QueryDataset(dataset.samples, {"mode": mode}),
                             small_graph, path)
        with pytest.raises(DataError) as error:
            oracle.read_dataset(path, small_graph)
        assert str(error.value) == (f"dataset {path} has mode {mode!r}; "
                                    f"supported modes are generalization, train, valid, test")

    @pytest.mark.parametrize("meta", [None, {}], ids=["no-meta-line", "meta-without-mode"])
    def test_dataset_without_a_mode_stays_readable(self, meta, tmp_path, small_graph):
        dataset = oracle.sample_dataset(small_graph, ("1p", "2i"), 5, seed=2, mode="train")
        path = tmp_path / "queries.jsonl"
        oracle.write_dataset(oracle.QueryDataset(dataset.samples, meta or {}), small_graph, path)
        if meta is None:
            path.write_text("".join(path.read_text().splitlines(True)[1:]))
        loaded = oracle.read_dataset(path, small_graph)
        assert loaded.mode == "" and loaded.samples == dataset.samples

    @pytest.mark.parametrize("mode", oracle.DATASET_MODES)
    def test_query_against_its_mode_is_refused(self, mode, tmp_path, small_graph):
        """A train query with a hard answer, or a query of a held-out mode
        without one, breaks its mode's row; without a mode the file reads."""
        dataset = oracle.sample_dataset(small_graph, ("1p", "2i"), 5, seed=2, mode=mode)
        samples = list(dataset.samples)
        first = samples[1]
        if mode == "train":  # move one easy answer to hard
            samples[1] = oracle.QuerySample(first.instance, first.easy[1:], first.easy[:1])
            message = "train query 1 (1p) has hard answers; no train query needs a held-out edge"
        else:  # make every answer easy
            samples[1] = oracle.QuerySample(first.instance, first.answers, ())
            message = (f"{mode} query 1 (1p) has no hard answer; "
                       f"every {mode} query needs a held-out edge")
        path = tmp_path / "queries.jsonl"
        oracle.write_dataset(oracle.QueryDataset(samples, dataset.metadata), small_graph, path)
        with pytest.raises(DataError) as error:
            oracle.read_dataset(path, small_graph)
        assert str(error.value) == message
        oracle.write_dataset(oracle.QueryDataset(samples, {}), small_graph, path)
        assert oracle.read_dataset(path, small_graph).samples == samples
