"""Query structures and their compilation into Skolem set-logic plans.

The 14 supported structures are described twice: as existential FOL atom
lists (used by the parser and the brute-force oracle) and, derived from
those, as single-sink DAG plans of anchor / relation / negation /
conjunction / disjunction nodes (used by the set oracle and the model).
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass, field

from .errors import DataError, QueryParseError, UnsupportedQueryError

ANCHOR_TERMS = ("a", "b", "c")
VAR_TERMS = ("V", "W")
TARGET_TERM = "T"
RELATION_SLOTS = ("p", "q", "r")


@dataclass(frozen=True)
class Atom:
    """One literal ``[not] rel(src, dst)`` of a template body."""

    negated: bool
    relation: int  # positional slot into RELATION_SLOTS
    src: str
    dst: str


@dataclass(frozen=True)
class Template:
    """A query structure: its FOL body plus which atom pairs are OR-joined."""

    name: str
    num_anchors: int
    num_relations: int
    atoms: tuple[Atom, ...]
    or_pairs: frozenset[frozenset[int]] = frozenset()

    @property
    def bound_vars(self) -> tuple[str, ...]:
        seen = []
        for atom in self.atoms:
            for term in (atom.src, atom.dst):
                if term in VAR_TERMS and term not in seen:
                    seen.append(term)
        return tuple(seen)

    @property
    def has_negation(self) -> bool:
        return any(a.negated for a in self.atoms)

    @property
    def has_union(self) -> bool:
        return bool(self.or_pairs)


def _t(name, n_anchor, n_rel, atoms, or_pairs=()):
    parsed = tuple(
        Atom(negated, RELATION_SLOTS.index(rel), src, dst)
        for negated, rel, src, dst in atoms
    )
    pairs = frozenset(frozenset(p) for p in or_pairs)
    return Template(name, n_anchor, n_rel, parsed, pairs)


TEMPLATES: dict[str, Template] = {
    t.name: t
    for t in [
        _t("1p", 1, 1, [(False, "p", "a", "T")]),
        _t("2p", 1, 2, [(False, "p", "a", "V"), (False, "q", "V", "T")]),
        _t("3p", 1, 3, [(False, "p", "a", "V"), (False, "q", "V", "W"), (False, "r", "W", "T")]),
        _t("2i", 2, 2, [(False, "p", "a", "T"), (False, "q", "b", "T")]),
        _t("3i", 3, 3, [(False, "p", "a", "T"), (False, "q", "b", "T"), (False, "r", "c", "T")]),
        _t("pi", 2, 3, [(False, "p", "a", "V"), (False, "q", "V", "T"), (False, "r", "b", "T")]),
        _t("ip", 2, 3, [(False, "p", "a", "V"), (False, "q", "b", "V"), (False, "r", "V", "T")]),
        _t("2in", 2, 2, [(False, "p", "a", "T"), (True, "q", "b", "T")]),
        _t("3in", 3, 3, [(False, "p", "a", "T"), (False, "q", "b", "T"), (True, "r", "c", "T")]),
        _t("pin", 2, 3, [(False, "p", "a", "V"), (False, "q", "V", "T"), (True, "r", "b", "T")]),
        _t("pni", 2, 3, [(False, "p", "a", "V"), (True, "q", "V", "T"), (False, "r", "b", "T")]),
        _t("inp", 2, 3, [(False, "p", "a", "V"), (True, "q", "b", "V"), (False, "r", "V", "T")]),
        _t("2u", 2, 2, [(False, "p", "a", "T"), (False, "q", "b", "T")], or_pairs=[(0, 1)]),
        _t("up", 2, 3, [(False, "p", "a", "V"), (False, "q", "b", "V"), (False, "r", "V", "T")], or_pairs=[(0, 1)]),
    ]
}

STRUCTURE_NAMES = tuple(TEMPLATES)
EPFO_STRUCTURES = ("1p", "2p", "3p", "2i", "3i", "pi", "ip", "2u", "up")
NEGATION_STRUCTURES = ("2in", "3in", "pin", "pni", "inp")
UNION_STRUCTURES = ("2u", "up")
TRAIN_STRUCTURES = ("1p", "2p", "3p", "2i", "3i", "2in", "3in", "inp", "pin", "pni")


@dataclass(frozen=True)
class QueryInstance:
    """A structure grounded with positional anchor and relation ids."""

    structure: str
    anchors: tuple[int, ...]
    relations: tuple[int, ...]

    def template(self) -> Template:
        try:
            return TEMPLATES[self.structure]
        except KeyError:
            raise DataError(f"unknown query structure {self.structure!r}") from None


# --- plans -------------------------------------------------------------------

@dataclass(frozen=True)
class Anchor:
    entity: int


@dataclass(frozen=True)
class Relate:
    relation: int
    input: int


@dataclass(frozen=True)
class Negate:
    input: int


@dataclass(frozen=True)
class Conjoin:
    inputs: tuple[int, ...]


@dataclass(frozen=True)
class Disjoin:
    inputs: tuple[int, ...]


PlanNode = Anchor | Relate | Negate | Conjoin | Disjoin


@dataclass
class QueryPlan:
    """Single-sink acyclic node graph; node ids are list positions."""

    nodes: list[PlanNode] = field(default_factory=list)
    sink: int = -1

    def add(self, node: PlanNode) -> int:
        self.nodes.append(node)
        return len(self.nodes) - 1

    def node_inputs(self, node: PlanNode) -> tuple[int, ...]:
        if isinstance(node, (Relate, Negate)):
            return (node.input,)
        if isinstance(node, (Conjoin, Disjoin)):
            return node.inputs
        return ()


def compile_instance(instance: QueryInstance) -> QueryPlan:
    """Convert a grounded structure into its Skolem set-logic plan.

    Each FOL atom ``rel(x, y)`` becomes a relation application to the plan of
    ``x``; atoms sharing a destination combine with conjunction, or with
    disjunction where the template OR-joins them; negated atoms wrap in a
    negation node.
    """
    template = instance.template()
    if len(instance.anchors) != template.num_anchors:
        raise DataError(
            f"{template.name} expects {template.num_anchors} anchors, "
            f"got {len(instance.anchors)}"
        )
    if len(instance.relations) != template.num_relations:
        raise DataError(
            f"{template.name} expects {template.num_relations} relations, "
            f"got {len(instance.relations)}"
        )

    plan = QueryPlan()
    plan.sink = _build_term(TARGET_TERM, template, instance, plan, {})
    return plan


def _build_term(term: str, template: Template, instance: QueryInstance, plan: QueryPlan,
                anchor_nodes: dict[str, int]) -> int:
    """Add the nodes defining ``term`` to ``plan``; returns its node id. (A
    recursive closure would be a reference cycle left to the garbage collector.)"""
    if term in ANCHOR_TERMS:
        if term not in anchor_nodes:
            entity = instance.anchors[ANCHOR_TERMS.index(term)]
            anchor_nodes[term] = plan.add(Anchor(entity))
        return anchor_nodes[term]
    incoming = [i for i, atom in enumerate(template.atoms) if atom.dst == term]
    if not incoming:
        raise DataError(f"term {term!r} has no defining atom")
    parts = []
    for i in incoming:
        atom = template.atoms[i]
        source = _build_term(atom.src, template, instance, plan, anchor_nodes)
        node = plan.add(Relate(instance.relations[atom.relation], source))
        if atom.negated:
            node = plan.add(Negate(node))
        parts.append(node)
    if len(parts) == 1:
        return parts[0]
    if frozenset(incoming) in template.or_pairs:
        return plan.add(Disjoin(tuple(parts)))
    return plan.add(Conjoin(tuple(parts)))


def validate(plan: QueryPlan) -> list[str]:
    """Return structural violations; an empty list means the plan is valid."""
    violations: list[str] = []
    n = len(plan.nodes)
    if n == 0:
        return ["empty plan"]
    if not (0 <= plan.sink < n):
        violations.append("sink id out of range")

    referenced: set[int] = set()
    for idx, node in enumerate(plan.nodes):
        inputs = plan.node_inputs(node)
        if isinstance(node, (Conjoin, Disjoin)) and len(inputs) < 2:
            violations.append(f"node {idx}: arity below 2")
        for inp in inputs:
            if not (0 <= inp < n):
                violations.append(f"node {idx}: input id {inp} out of range")
            else:
                referenced.add(inp)
        if not inputs and not isinstance(node, Anchor):
            violations.append(f"node {idx}: non-anchor source")

    sinks = [i for i in range(n) if i not in referenced]
    if len(sinks) > 1:
        violations.append("multiple sinks")
    elif sinks and 0 <= plan.sink < n and sinks[0] != plan.sink:
        violations.append("declared sink is not the graph sink")
    elif not sinks:
        violations.append("no sink (every node is consumed)")

    # cycle detection by iterative colouring
    state = [0] * n  # 0 unvisited, 1 on stack, 2 done
    for start in range(n):
        if state[start] != 0:
            continue
        stack = [(start, iter(plan.node_inputs(plan.nodes[start])))]
        state[start] = 1
        while stack:
            node_id, it = stack[-1]
            advanced = False
            for inp in it:
                if not (0 <= inp < n):
                    continue
                if state[inp] == 1:
                    violations.append("cycle")
                    state[inp] = 2
                elif state[inp] == 0:
                    state[inp] = 1
                    stack.append((inp, iter(plan.node_inputs(plan.nodes[inp]))))
                    advanced = True
                    break
            if not advanced:
                state[node_id] = 2
                stack.pop()
    return violations


def _branch_exprs(plan: QueryPlan, node_id: int) -> list:
    """Expand a plan node into union-free expression trees (nested tuples)."""
    node = plan.nodes[node_id]
    if isinstance(node, Anchor):
        return [("anchor", node.entity)]
    if isinstance(node, Relate):
        return [("relate", node.relation, b) for b in _branch_exprs(plan, node.input)]
    if isinstance(node, Negate):
        branches = _branch_exprs(plan, node.input)
        if len(branches) > 1:
            raise UnsupportedQueryError("disjunction under negation is not rewritable")
        return [("negate", branches[0])]
    if isinstance(node, Conjoin):
        parts = [_branch_exprs(plan, i) for i in node.inputs]
        return [("conjoin", combo) for combo in itertools.product(*parts)]
    if isinstance(node, Disjoin):
        out = []
        for i in node.inputs:
            out.extend(_branch_exprs(plan, i))
        return out
    raise DataError(f"unknown node type {type(node).__name__}")


def _expr_to_plan(expr, plan: QueryPlan) -> int:
    kind = expr[0]
    if kind == "anchor":
        return plan.add(Anchor(expr[1]))
    if kind == "relate":
        return plan.add(Relate(expr[1], _expr_to_plan(expr[2], plan)))
    if kind == "negate":
        return plan.add(Negate(_expr_to_plan(expr[1], plan)))
    if kind == "conjoin":
        return plan.add(Conjoin(tuple(_expr_to_plan(e, plan) for e in expr[1])))
    raise DataError(f"unknown expression kind {kind!r}")


def to_dnf(plan: QueryPlan) -> list[QueryPlan]:
    """Rewrite a plan into union-free branch plans whose answer union matches.

    Plans without disjunction return themselves as the single branch.
    """
    problems = validate(plan)
    if problems:
        raise DataError(f"invalid plan: {'; '.join(problems)}")
    if not any(isinstance(n, Disjoin) for n in plan.nodes):
        return [plan]
    branches = []
    for expr in _branch_exprs(plan, plan.sink):
        branch = QueryPlan()
        branch.sink = _expr_to_plan(expr, branch)
        branches.append(branch)
    return branches


# --- linear surface syntax ---------------------------------------------------

# an identifier may contain dots but not end in one: ``EXISTS T. p(a, T)``
_TOKEN_RE = re.compile(r"\s*(EXISTS|AND|OR|NOT|[A-Za-z_](?:[A-Za-z0-9_.:/-]*[A-Za-z0-9_:/-])?|[(),.])")


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        match = _TOKEN_RE.match(text, pos)
        if not match:
            if text[pos:].strip():
                raise QueryParseError(f"unexpected character {text[pos]!r}", pos)
            break
        value = match.group(1)
        start = match.start(1)
        if value in ("EXISTS", "AND", "OR", "NOT"):
            kind = value
        elif value in "(),.":
            kind = value
        else:
            kind = "IDENT"
        tokens.append((kind, value, start))
        pos = match.end()
    tokens.append(("EOF", "", len(text)))
    return tokens


class _FolParser:
    """Recursive-descent parser for ``EXISTS vars . literal ((AND|OR) literal)*``."""

    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos]

    def expect(self, kind: str) -> tuple[str, str, int]:
        token = self.tokens[self.pos]
        if token[0] != kind:
            raise QueryParseError(f"expected {kind}, found {token[1] or 'end of input'!r}", token[2])
        self.pos += 1
        return token

    def parse(self):
        self.expect("EXISTS")
        variables = [self.expect("IDENT")[1]]
        while self.peek()[0] == ",":
            self.expect(",")
            variables.append(self.expect("IDENT")[1])
        if len(set(variables)) != len(variables):
            raise QueryParseError("duplicate variable in EXISTS list", self.peek()[2])
        self.expect(".")
        literals = [self.parse_literal()]
        connectives = []
        while self.peek()[0] in ("AND", "OR"):
            connectives.append(self.expect(self.peek()[0])[0])
            literals.append(self.parse_literal())
        self.expect("EOF")
        return variables, literals, connectives

    def parse_literal(self):
        negated = False
        if self.peek()[0] == "NOT":
            self.expect("NOT")
            negated = True
        relation = self.expect("IDENT")[1]
        self.expect("(")
        first = self.expect("IDENT")[1]
        self.expect(",")
        second = self.expect("IDENT")[1]
        self.expect(")")
        return (negated, relation, first, second)


def _match_template(template: Template, literals, or_pairs) -> tuple[dict, dict] | None:
    """Try to map template atoms onto parsed literals; return bindings or None."""
    n = len(literals)
    if n != len(template.atoms):
        return None
    for perm in itertools.permutations(range(n)):
        # perm[i] = literal index assigned to template atom i
        if any(template.atoms[i].negated != literals[perm[i]][0] for i in range(n)):
            continue
        literal_to_atom = {perm[i]: i for i in range(n)}
        mapped_pairs = frozenset(
            frozenset(literal_to_atom[x] for x in pair) for pair in or_pairs
        )
        if mapped_pairs != template.or_pairs:
            continue
        term_binding: dict[str, str] = {}
        rel_binding: dict[int, str] = {}
        ok = True
        for i in range(n):
            atom = template.atoms[i]
            _, rel_name, src, dst = literals[perm[i]]
            if rel_binding.setdefault(atom.relation, rel_name) != rel_name:
                ok = False
                break
            for tmpl_term, parsed_term in ((atom.src, src), (atom.dst, dst)):
                if term_binding.setdefault(tmpl_term, parsed_term) != parsed_term:
                    ok = False
                    break
            if not ok:
                break
        if not ok:
            continue
        # template variables must bind distinct parsed variables
        var_targets = [term_binding[v] for v in (*template.bound_vars, TARGET_TERM)]
        if len(set(var_targets)) != len(var_targets):
            continue
        return term_binding, rel_binding
    return None


def parse_fol(text: str, graph) -> QueryInstance:
    """Parse a linear FOL query and recognize it as one of the 14 structures.

    Recognition is structural: literal order, variable names, and AND operand
    order do not matter, only the dependency-graph shape, negation flags, and
    OR placement.
    """
    variables, literals, connectives = _FolParser(text).parse()
    var_set = set(variables)
    or_pairs = frozenset(
        frozenset({i, i + 1}) for i, c in enumerate(connectives) if c == "OR"
    )

    used_terms = {t for _, _, s, d in literals for t in (s, d)}
    unused = var_set - used_terms
    if unused:
        raise QueryParseError(f"unused variable {sorted(unused)[0]!r}")
    for negated, rel_name, src, dst in literals:
        if rel_name not in graph.relations:
            raise QueryParseError(f"unknown relation {rel_name!r}")
        for term in (src, dst):
            if term not in var_set and term not in graph.entities:
                raise QueryParseError(f"unknown entity {term!r}")

    for name in STRUCTURE_NAMES:
        template = TEMPLATES[name]
        match = _match_template(template, literals, or_pairs)
        if match is None:
            continue
        term_binding, rel_binding = match
        # anchors must be constants, variables must be declared variables
        if any(term_binding[a] in var_set for a in ANCHOR_TERMS[: template.num_anchors]):
            continue
        if any(
            term_binding[v] not in var_set
            for v in (*template.bound_vars, TARGET_TERM)
        ):
            continue
        anchors = tuple(
            graph.entities.id_of(term_binding[a])
            for a in ANCHOR_TERMS[: template.num_anchors]
        )
        relations = tuple(
            graph.relations.id_of(rel_binding[i])
            for i in range(template.num_relations)
        )
        return QueryInstance(name, anchors, relations)
    raise UnsupportedQueryError("unsupported structure: query matches none of the 14 forms")


# --- JSONL records ------------------------------------------------------------

def instance_to_record(instance: QueryInstance, graph, easy=(), hard=()) -> dict:
    return {
        "structure": instance.structure,
        "anchors": [graph.entities.name_of(a) for a in instance.anchors],
        "relations": [graph.relations.name_of(r) for r in instance.relations],
        "easy": [graph.entities.name_of(e) for e in sorted(easy)],
        "hard": [graph.entities.name_of(e) for e in sorted(hard)],
    }


def record_to_instance(record: dict, graph) -> tuple[QueryInstance, tuple[int, ...], tuple[int, ...]]:
    try:
        structure = record["structure"]
        anchors = tuple(graph.entities.id_of(n) for n in record["anchors"])
        relations = tuple(graph.relations.id_of(n) for n in record["relations"])
    except KeyError as exc:
        raise DataError(f"query record missing field {exc}") from None
    instance = QueryInstance(structure, anchors, relations)
    instance.template()  # raises on unknown structure
    easy = tuple(sorted(graph.entities.id_of(n) for n in record.get("easy", [])))
    hard = tuple(sorted(graph.entities.id_of(n) for n in record.get("hard", [])))
    return instance, easy, hard
