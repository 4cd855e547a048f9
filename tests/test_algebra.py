import dataclasses

import pytest

from skqe import algebra, kg
from skqe.algebra import (
    Anchor, Conjoin, Disjoin, QueryInstance, QueryPlan, Relate,
)
from skqe.errors import DataError, QueryParseError, UnsupportedQueryError

from conftest import UNION_STRUCTURES

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


A, R, C, D = Anchor, Relate, Conjoin, Disjoin
# Every structure's compiled plan, node by node.
PINNED_PLANS = {
    "1p": (A(0), R(0, 0)),
    "2p": (A(0), R(0, 0), R(1, 1)),
    "3p": (A(0), R(0, 0), R(1, 1), R(2, 2)),
    "2i": (A(0), R(0, 0), A(1), R(1, 2), C((1, 3))),
    "3i": (A(0), R(0, 0), A(1), R(1, 2), A(2), R(2, 4), C((1, 3, 5))),
    "pi": (A(0), R(0, 0), R(1, 1), A(1), R(2, 3), C((2, 4))),
    "ip": (A(0), R(0, 0), A(1), R(1, 2), C((1, 3)), R(2, 4)),
    "2in": (A(0), R(0, 0), A(1), R(1, 2), C((1, 3), negated=(3,))),
    "3in": (A(0), R(0, 0), A(1), R(1, 2), A(2), R(2, 4), C((1, 3, 5), negated=(5,))),
    "pin": (A(0), R(0, 0), R(1, 1), A(1), R(2, 3), C((2, 4), negated=(4,))),
    "pni": (A(0), R(0, 0), R(1, 1), A(1), R(2, 3), C((2, 4), negated=(2,))),
    "inp": (A(0), R(0, 0), A(1), R(1, 2), C((1, 3), negated=(3,)), R(2, 4)),
    "2u": (A(0), R(0, 0), A(1), R(1, 2), D((1, 3))),
    "up": (A(0), R(0, 0), A(1), R(1, 2), D((1, 3)), R(2, 4)),
}
# The DNF branches of the union structures; every other plan is its own branch.
PINNED_DNF_BRANCHES = {
    "2u": ((A(0), R(0, 0)), (A(1), R(1, 0))),
    "up": ((A(0), R(0, 0), R(2, 1)), (A(1), R(1, 0), R(2, 1))),
}


def shape_of(plan: QueryPlan, anchors, relations, node_id: int | None = None):
    """Plan under slot bindings as a nested tuple, for structural comparison."""
    node_id = len(plan.nodes) - 1 if node_id is None else node_id
    node = plan.nodes[node_id]
    if isinstance(node, Anchor):
        return ("anchor", anchors[node.slot])
    if isinstance(node, Relate):
        return ("relate", relations[node.slot], shape_of(plan, anchors, relations, node.input))
    if isinstance(node, Disjoin):
        return ("disjoin", tuple(shape_of(plan, anchors, relations, i) for i in node.inputs))
    return ("conjoin", tuple(
        ("negate", shape_of(plan, anchors, relations, i)) if i in node.negated
        else shape_of(plan, anchors, relations, i) for i in node.inputs))


class TestCompile:
    def test_two_intersection(self):
        plan = algebra.compile_instance("2i")
        assert shape_of(plan, (5, 6), (0, 1)) == (
            "conjoin", (("relate", 0, ("anchor", 5)), ("relate", 1, ("anchor", 6)))
        )

    def test_intersection_negation_projection(self):
        plan = algebra.compile_instance("inp")
        assert shape_of(plan, (3, 4), (0, 1, 2)) == (
            "relate", 2,
            ("conjoin", (("relate", 0, ("anchor", 3)),
                         ("negate", ("relate", 1, ("anchor", 4))))),
        )

    def test_single_hop_has_two_nodes(self):
        plan = algebra.compile_instance("1p")
        assert len(plan.nodes) == 2
        assert shape_of(plan, (9,), (2,)) == ("relate", 2, ("anchor", 9))

    def test_chain_negation(self):
        plan = algebra.compile_instance("pin")
        assert shape_of(plan, (0, 1), (0, 1, 2)) == (
            "conjoin", (("relate", 1, ("relate", 0, ("anchor", 0))),
                        ("negate", ("relate", 2, ("anchor", 1)))),
        )

    def test_unknown_structure_rejected(self):
        with pytest.raises(DataError, match="unknown query structure"):
            algebra.compile_instance("4p")


class TestPinnedPlans:
    @pytest.mark.parametrize("structure", algebra.STRUCTURE_NAMES)
    def test_plan_and_branches_node_by_node(self, structure):
        plan = algebra.structure_plan(structure)
        assert plan.nodes == PINNED_PLANS[structure]
        assert algebra.compile_instance(structure) == plan
        assert algebra.plan_branches(structure, "dm") == (plan,)
        want = PINNED_DNF_BRANCHES.get(structure, (PINNED_PLANS[structure],))
        assert tuple(b.nodes for b in algebra.plan_branches(structure, "dnf")) == want

    def test_every_structure_is_pinned(self):
        assert tuple(PINNED_PLANS) == algebra.STRUCTURE_NAMES
        assert tuple(PINNED_DNF_BRANCHES) == UNION_STRUCTURES


class TestQueryInstance:
    def test_arity_mismatch_rejected(self):
        with pytest.raises(DataError, match="2i expects 2 anchors, got 1"):
            QueryInstance("2i", (1,), (0, 1))
        with pytest.raises(DataError, match="2i expects 2 relations, got 1"):
            QueryInstance("2i", (1, 2), (0,))

    def test_unknown_structure_rejected(self):
        with pytest.raises(DataError, match="unknown query structure"):
            QueryInstance("4p", (1,), (0,))


class TestPlanShape:
    @pytest.mark.parametrize("structure", algebra.STRUCTURE_NAMES)
    def test_compiled_plans_are_valid(self, structure):
        for union_mode in algebra.UNION_MODES:
            for branch in algebra.plan_branches(structure, union_mode):
                assert QueryPlan(branch.nodes) == branch

    def test_cached_plans_are_frozen(self):
        plan = algebra.structure_plan("up")
        with pytest.raises(dataclasses.FrozenInstanceError):
            plan.nodes = ()
        for cached in (plan, *algebra.plan_branches("up", "dnf")):
            assert isinstance(cached.nodes, tuple)

    def test_two_sinks_rejected(self):
        with pytest.raises(DataError, match="feed no later node"):
            QueryPlan((Anchor(0), Relate(0, 0), Relate(1, 0)))

    @pytest.mark.parametrize("structure", algebra.STRUCTURE_NAMES)
    def test_one_relate_per_atom_and_one_anchor_per_anchor_term(self, structure):
        # the plan walk draws a row per Relate where the template walk drew one
        # per atom, so no atom may be left out of the plan, as a cycle's would be
        template, plan = algebra.TEMPLATES[structure], algebra.structure_plan(structure)
        relates = sorted(n.slot for n in plan.nodes if isinstance(n, Relate))
        anchors = sorted(n.slot for n in plan.nodes if isinstance(n, Anchor))
        assert relates == sorted(atom.relation for atom in template.atoms)
        assert relates == list(range(template.num_relations))
        assert anchors == list(range(template.num_anchors))

    @pytest.mark.parametrize("nodes,match", [
        ((Anchor(0), Relate(0, 0), Relate(1, 0), Conjoin((1, 2))),
         r"plan nodes \[0\] feed more than one later node"),
        ((Anchor(0), Relate(0, 0), Conjoin((1, 1))),
         r"plan nodes \[1\] feed more than one later node"),
        ((Anchor(0), Relate(0, 0), Anchor(0), Relate(1, 2), Conjoin((1, 3))),
         "plan node 2: anchor slot 0 is bound twice"),
        ((Anchor(0), Relate(0, 0), Anchor(1), Relate(0, 2), Conjoin((1, 3))),
         "plan node 3: relation slot 0 is bound twice"),
    ], ids=["shared-node", "input-listed-twice", "anchor-slot-twice", "relation-slot-twice"])
    def test_plan_that_is_not_a_tree_or_rebinds_a_slot_rejected(self, nodes, match):
        with pytest.raises(DataError, match=match):
            QueryPlan(nodes)

    @pytest.mark.parametrize("template,match", [
        # the second atom walks relation slot 0 again
        (algebra.Template("shared-slot", 2, 1, (
            algebra.Atom(False, 0, "a", "T"), algebra.Atom(True, 0, "b", "T"))),
         "relation slot 0 is bound twice"),
        # the third atom reads the anchor term that the first one reads
        (algebra.Template("bound-term", 1, 3, (
            algebra.Atom(False, 0, "a", "T"), algebra.Atom(False, 1, "V", "T"),
            algebra.Atom(False, 2, "a", "V"))),
         "anchor slot 0 is bound twice"),
    ], ids=["shared-slot", "bound-term"])
    def test_template_that_rebinds_a_term_or_slot_rejected(self, template, match):
        with pytest.raises(DataError, match=match):
            algebra._compile(template)

    def test_self_feeding_relate_rejected(self):
        with pytest.raises(DataError, match="does not come before it"):
            QueryPlan((Anchor(0), Relate(0, 1)))

    def test_forward_input_rejected(self):
        # a join reading itself and a later node
        with pytest.raises(DataError, match="does not come before it"):
            QueryPlan((Conjoin((0, 1)), Anchor(1), Conjoin((0, 1))))

    def test_bad_conjoin_arity_rejected(self):
        with pytest.raises(DataError, match="two or more inputs"):
            QueryPlan((Anchor(0), Conjoin((0,))))

    def test_answer_must_be_the_last_node(self):
        # the relation's value would be dropped
        with pytest.raises(DataError, match=r"plan nodes \[1\] feed no later node"):
            QueryPlan((Anchor(0), Relate(0, 0), Anchor(1)))
        with pytest.raises(DataError, match="at least one node"):
            QueryPlan(())

    def test_negated_id_outside_the_inputs_rejected(self):
        with pytest.raises(DataError, match=r"plan node 4: negated inputs \(2,\) are not a "
                                            r"proper subset of its inputs \(1, 3\)"):
            QueryPlan((Anchor(0), Relate(0, 0), Anchor(1), Relate(1, 2),
                       Conjoin((1, 3), negated=(2,))))

    def test_conjunction_of_negated_inputs_only_rejected(self):
        with pytest.raises(DataError, match=r"plan node 4: negated inputs \(1, 3\) are not a "
                                            r"proper subset of its inputs \(1, 3\)"):
            QueryPlan((Anchor(0), Relate(0, 0), Anchor(1), Relate(1, 2),
                       Conjoin((1, 3), negated=(1, 3))))

    @pytest.mark.parametrize("structure,atom", [("1p", 0), ("2p", 0), ("2p", 1), ("2u", 0),
                                                ("up", 1)])
    def test_negated_atom_outside_a_conjunction_rejected(self, structure, atom):
        # alone at its term, or OR-joined: no plan node can hold the negation
        template = algebra.TEMPLATES[structure]
        atoms = list(template.atoms)
        atoms[atom] = dataclasses.replace(atoms[atom], negated=True)
        with pytest.raises(DataError, match="is not joined by a conjunction"):
            algebra._compile(dataclasses.replace(template, atoms=tuple(atoms)))


def _or_defined_terms(template):
    return {template.atoms[i].dst for pair in template.or_pairs for i in pair}


def _depends_on(template, term):
    """Terms whose values ``term`` is computed from, itself included."""
    seen, todo = set(), [term]
    while todo:
        current = todo.pop()
        if current not in seen:
            seen.add(current)
            todo.extend(a.src for a in template.atoms if a.dst == current)
    return seen


class TestTemplates:
    @pytest.mark.parametrize("structure", algebra.STRUCTURE_NAMES)
    def test_template_level_dnf_is_exact(self, structure):
        """Relation following and conjunction distribute over union and negation
        does not, so one kept atom per OR-pair gives exact DNF branches only if
        no negated atom reads an OR-defined term and each such term feeds one
        atom."""
        template = algebra.TEMPLATES[structure]
        or_terms = _or_defined_terms(template)
        for atom in template.atoms:
            if atom.negated:
                assert not _depends_on(template, atom.src) & or_terms
        for term in or_terms - {algebra.TARGET_TERM}:
            assert sum(a.src == term for a in template.atoms) == 1

    def test_union_structures_are_the_ones_with_or_pairs(self):
        assert UNION_STRUCTURES == ("2u", "up")

    def test_structure_families_follow_the_templates(self):
        # BetaE's grouping, in TEMPLATES order; the training set is BetaE's ten
        assert algebra.NEGATION_STRUCTURES == ("2in", "3in", "pin", "pni", "inp")
        assert algebra.EPFO_STRUCTURES == ("1p", "2p", "3p", "2i", "3i", "pi", "ip", "2u", "up")
        assert algebra.TRAIN_STRUCTURES == (
            "1p", "2p", "3p", "2i", "3i", "2in", "3in", "inp", "pin", "pni")


class TestDnfBranches:
    def test_two_union_splits_into_branches(self):
        branches = algebra.plan_branches("2u", "dnf")
        assert [shape_of(b, (1, 2), (0, 1)) for b in branches] == [
            ("relate", 0, ("anchor", 1)),
            ("relate", 1, ("anchor", 2)),
        ]

    def test_union_projection_pushes_relation_into_branches(self):
        branches = algebra.plan_branches("up", "dnf")
        assert [shape_of(b, (1, 2), (0, 1, 2)) for b in branches] == [
            ("relate", 2, ("relate", 0, ("anchor", 1))),
            ("relate", 2, ("relate", 1, ("anchor", 2))),
        ]

    def test_union_free_plan_is_its_own_branch(self):
        branches = algebra.plan_branches("3i", "dnf")
        assert len(branches) == 1
        assert branches[0] is algebra.structure_plan("3i")

    def test_union_modes_share_the_cached_plan(self):
        assert algebra.plan_branches("up", "dm") == (algebra.structure_plan("up"),)
        assert algebra.plan_branches("3i", "dnf") == (algebra.structure_plan("3i"),)
        assert len(algebra.plan_branches("up", "dnf")) == 2
        with pytest.raises(DataError, match="unknown union mode"):
            algebra.plan_branches("up", "cnf")

    @pytest.mark.parametrize("structure", UNION_STRUCTURES)
    def test_branches_are_union_free(self, structure):
        for branch in algebra.plan_branches(structure, "dnf"):
            assert not any(isinstance(n, Disjoin) for n in branch.nodes)


class TestParseFol:
    @pytest.mark.parametrize("structure", algebra.STRUCTURE_NAMES)
    def test_canonical_forms_reproduce_their_plans(self, structure, placeholder_graph):
        instance = algebra.parse_fol(CANONICAL_FOL[structure], placeholder_graph)
        template = algebra.TEMPLATES[structure]
        assert instance == QueryInstance(
            structure,
            tuple(range(template.num_anchors)),
            tuple(range(template.num_relations)),
        )

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

    @pytest.mark.parametrize("field", ["easy", "hard"])
    def test_answer_name_listed_twice_is_a_data_error(self, placeholder_graph, field):
        # a repeated answer would count twice in the metrics and in training's positive picks
        record = {"structure": "1p", "anchors": ["a"], "relations": ["p"],
                  "easy": ["a"], "hard": ["b"], field: ["c", "b", "c"]}
        with pytest.raises(DataError, match=f"field '{field}' lists 'c' more than once"):
            algebra.record_to_instance(record, placeholder_graph)

    def test_an_anchor_may_repeat(self, placeholder_graph):
        record = {"structure": "2i", "anchors": ["a", "a"], "relations": ["p", "q"]}
        instance, easy, hard = algebra.record_to_instance(record, placeholder_graph)
        assert instance.anchors == (0, 0) and easy == hard == ()
