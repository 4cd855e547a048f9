import numpy as np
import pytest

from skqe import algebra, kg
from skqe.algebra import (
    Anchor, Conjoin, Disjoin, Negate, QueryInstance, QueryPlan, Relate,
)
from skqe.errors import DataError, QueryParseError, UnsupportedQueryError

# Canonical linear forms of the 14 structures (template argument order).
CANONICAL_FOL = {
    "1p": "EXISTS T . p(a,T)",
    "2p": "EXISTS V,T . p(a,V) AND q(V,T)",
    "3p": "EXISTS V,W,T . p(a,V) AND q(V,W) AND r(W,T)",
    "2i": "EXISTS T . p(a,T) AND q(b,T)",
    "3i": "EXISTS T . p(a,T) AND q(b,T) AND r(c,T)",
    "pi": "EXISTS V,T . p(a,V) AND q(V,T) AND r(b,T)",
    "ip": "EXISTS V,T . p(a,V) AND q(b,V) AND r(V,T)",
    "2in": "EXISTS T . p(a,T) AND NOT q(b,T)",
    "3in": "EXISTS T . p(a,T) AND q(b,T) AND NOT r(c,T)",
    "pin": "EXISTS V,T . p(a,V) AND q(V,T) AND NOT r(b,T)",
    "pni": "EXISTS V,T . p(a,V) AND NOT q(V,T) AND r(b,T)",
    "inp": "EXISTS V,T . p(a,V) AND NOT q(b,V) AND r(V,T)",
    "2u": "EXISTS T . p(a,T) OR q(b,T)",
    "up": "EXISTS V,T . p(a,V) OR q(b,V) AND r(V,T)",
}


def shape_of(plan: QueryPlan, node_id: int | None = None):
    """Plan as a nested tuple, for structural comparison."""
    node_id = plan.sink if node_id is None else node_id
    node = plan.nodes[node_id]
    if isinstance(node, Anchor):
        return ("anchor", node.entity)
    if isinstance(node, Relate):
        return ("relate", node.relation, shape_of(plan, node.input))
    if isinstance(node, Negate):
        return ("negate", shape_of(plan, node.input))
    name = "conjoin" if isinstance(node, Conjoin) else "disjoin"
    return (name, tuple(shape_of(plan, i) for i in node.inputs))


class TestCompile:
    def test_two_intersection(self):
        plan = algebra.compile_instance(QueryInstance("2i", (5, 6), (0, 1)))
        assert shape_of(plan) == (
            "conjoin", (("relate", 0, ("anchor", 5)), ("relate", 1, ("anchor", 6)))
        )

    def test_intersection_negation_projection(self):
        plan = algebra.compile_instance(QueryInstance("inp", (3, 4), (0, 1, 2)))
        assert shape_of(plan) == (
            "relate", 2,
            ("conjoin", (("relate", 0, ("anchor", 3)),
                         ("negate", ("relate", 1, ("anchor", 4))))),
        )

    def test_single_hop_has_two_nodes(self):
        plan = algebra.compile_instance(QueryInstance("1p", (9,), (2,)))
        assert len(plan.nodes) == 2
        assert shape_of(plan) == ("relate", 2, ("anchor", 9))

    def test_chain_negation(self):
        plan = algebra.compile_instance(QueryInstance("pin", (0, 1), (0, 1, 2)))
        assert shape_of(plan) == (
            "conjoin", (("relate", 1, ("relate", 0, ("anchor", 0))),
                        ("negate", ("relate", 2, ("anchor", 1)))),
        )

    def test_arity_mismatch_rejected(self):
        with pytest.raises(DataError, match="anchors"):
            algebra.compile_instance(QueryInstance("2i", (1,), (0, 1)))
        with pytest.raises(DataError, match="relations"):
            algebra.compile_instance(QueryInstance("2i", (1, 2), (0,)))


class TestValidate:
    @pytest.mark.parametrize("structure", algebra.STRUCTURE_NAMES)
    def test_compiled_plans_are_valid(self, structure):
        template = algebra.TEMPLATES[structure]
        instance = QueryInstance(
            structure,
            tuple(range(template.num_anchors)),
            tuple(range(template.num_relations)),
        )
        assert algebra.validate(algebra.compile_instance(instance)) == []

    def test_two_sinks_detected(self):
        plan = QueryPlan()
        a = plan.add(Anchor(0))
        plan.add(Relate(0, a))
        plan.sink = plan.add(Relate(1, a))
        assert any("multiple sinks" in v for v in algebra.validate(plan))

    def test_self_feeding_relate_is_a_cycle(self):
        plan = QueryPlan()
        plan.add(Anchor(0))
        plan.sink = plan.add(Relate(0, 1))
        violations = algebra.validate(plan)
        assert any("cycle" in v for v in violations)

    def test_non_anchor_source_detected(self):
        plan = QueryPlan()
        a = plan.add(Anchor(0))
        b = plan.add(Anchor(1))
        plan.sink = plan.add(Conjoin((a, b)))
        plan.nodes[0] = Conjoin((0, 1))  # corrupt: conjoin with itself as input
        assert algebra.validate(plan) != []

    def test_bad_conjoin_arity(self):
        plan = QueryPlan()
        a = plan.add(Anchor(0))
        plan.sink = plan.add(Conjoin((a,)))
        assert any("arity" in v for v in algebra.validate(plan))


class TestToDnf:
    def test_two_union_splits_into_branches(self):
        plan = algebra.compile_instance(QueryInstance("2u", (1, 2), (0, 1)))
        branches = algebra.to_dnf(plan)
        assert [shape_of(b) for b in branches] == [
            ("relate", 0, ("anchor", 1)),
            ("relate", 1, ("anchor", 2)),
        ]

    def test_union_projection_pushes_relation_into_branches(self):
        plan = algebra.compile_instance(QueryInstance("up", (1, 2), (0, 1, 2)))
        branches = algebra.to_dnf(plan)
        assert [shape_of(b) for b in branches] == [
            ("relate", 2, ("relate", 0, ("anchor", 1))),
            ("relate", 2, ("relate", 1, ("anchor", 2))),
        ]

    def test_union_free_plan_is_its_own_branch(self):
        plan = algebra.compile_instance(QueryInstance("3i", (1, 2, 3), (0, 1, 2)))
        branches = algebra.to_dnf(plan)
        assert len(branches) == 1
        assert shape_of(branches[0]) == shape_of(plan)

    def test_disjoin_under_negate_rejected(self):
        plan = QueryPlan()
        a = plan.add(Anchor(0))
        b = plan.add(Anchor(1))
        ra = plan.add(Relate(0, a))
        rb = plan.add(Relate(1, b))
        u = plan.add(Disjoin((ra, rb)))
        plan.sink = plan.add(Negate(u))
        with pytest.raises(UnsupportedQueryError):
            algebra.to_dnf(plan)

    def test_branches_are_valid_plans(self):
        plan = algebra.compile_instance(QueryInstance("up", (1, 2), (0, 1, 2)))
        for branch in algebra.to_dnf(plan):
            assert algebra.validate(branch) == []


class TestParseFol:
    @pytest.mark.parametrize("structure", algebra.STRUCTURE_NAMES)
    def test_canonical_forms_reproduce_their_plans(self, structure, placeholder_graph):
        instance = algebra.parse_fol(CANONICAL_FOL[structure], placeholder_graph)
        assert instance.structure == structure
        template = algebra.TEMPLATES[structure]
        expected = QueryInstance(
            structure,
            tuple(range(template.num_anchors)),
            tuple(range(template.num_relations)),
        )
        assert shape_of(algebra.compile_instance(instance)) == \
               shape_of(algebra.compile_instance(expected))

    def test_two_negation(self, placeholder_graph):
        instance = algebra.parse_fol("EXISTS T . p(a,T) AND NOT q(b,T)", placeholder_graph)
        assert instance == QueryInstance("2in", (0, 1), (0, 1))

    def test_recognition_is_structural_not_textual(self, placeholder_graph):
        instance = algebra.parse_fol(
            "EXISTS Y,X . r(Y,X) AND NOT q(b,Y) AND p(a,Y)", placeholder_graph
        )
        assert instance.structure == "inp"
        assert instance.anchors == (0, 1)
        assert instance.relations == (0, 1, 2)

    @pytest.mark.parametrize("text,structure", [
        ("EXISTS T. p(a, T)", "1p"),
        ("EXISTS V,T. p(a,V) AND q(V,T)", "2p"),
    ])
    def test_dot_may_follow_a_variable_directly(self, text, structure, placeholder_graph):
        assert algebra.parse_fol(text, placeholder_graph).structure == structure

    @pytest.mark.parametrize("text,structure,relations", [
        ("EXISTS T. r.x(a.b, T)", "1p", (0,)),
        ("EXISTS V,T. r.x(a.b,V) AND s(V,T)", "2p", (0, 1)),
    ])
    def test_dots_inside_names_stay_legal(self, text, structure, relations):
        graph = kg.KnowledgeGraph(kg.Vocabulary(["a.b", "c"]), kg.Vocabulary(["r.x", "s"]))
        assert algebra.parse_fol(text, graph) == QueryInstance(structure, (0,), relations)

    def test_negation_only_query_unsupported(self, placeholder_graph):
        with pytest.raises(UnsupportedQueryError):
            algebra.parse_fol("EXISTS T . NOT p(a,T)", placeholder_graph)

    def test_grammar_error_carries_position(self, placeholder_graph):
        with pytest.raises(QueryParseError, match="position"):
            algebra.parse_fol("EXISTS T . p(a T)", placeholder_graph)

    def test_unknown_entity_rejected(self, placeholder_graph):
        with pytest.raises(QueryParseError, match="unknown entity"):
            algebra.parse_fol("EXISTS T . p(zz,T)", placeholder_graph)

    def test_unknown_relation_rejected(self, placeholder_graph):
        with pytest.raises(QueryParseError, match="unknown relation"):
            algebra.parse_fol("EXISTS T . zz(a,T)", placeholder_graph)

    def test_four_atom_query_unsupported(self, placeholder_graph):
        with pytest.raises(UnsupportedQueryError):
            algebra.parse_fol(
                "EXISTS T . p(a,T) AND q(b,T) AND r(c,T) AND p(a,T)", placeholder_graph
            )

    def test_same_variable_for_two_roles_rejected(self, placeholder_graph):
        # q(T,T) must not match the chain shape q(V,T)
        with pytest.raises(UnsupportedQueryError):
            algebra.parse_fol("EXISTS T . p(a,T) AND q(T,T)", placeholder_graph)


class TestRecords:
    def test_record_round_trip(self, placeholder_graph):
        instance = QueryInstance("pin", (0, 1), (0, 1, 2))
        record = algebra.instance_to_record(instance, placeholder_graph, easy=(2,), hard=(1,))
        assert record == {
            "structure": "pin",
            "anchors": ["a", "b"],
            "relations": ["p", "q", "r"],
            "easy": ["c"],
            "hard": ["b"],
        }
        back, easy, hard = algebra.record_to_instance(record, placeholder_graph)
        assert back == instance and easy == (2,) and hard == (1,)
