"""Query structures and their compilation into Skolem set-logic plans.

Each of the 14 supported structures is an existential FOL atom list (read by
the compiler, the parser and the brute-force oracle) and, compiled from it,
one tree plan of anchor / relation / conjunction / disjunction nodes in
topological order, its last node the answer and each slot bound once.
Negation is not a node: a conjunction lists among its inputs the ones whose
complement it conjoins (``Conjoin.negated``), which is the only place the 14
structures negate. The plan is the program and a query
is only data: its anchor and relation nodes hold positional slots, and a
``QueryInstance`` binds those slots to entity and relation ids. A
``QueryPlan`` checks its own shape when it is built, so every plan that
exists is valid. ``structure_plan`` compiles each structure's plan once per
process, and ``plan_branches`` compiles its DNF branches from the template
(one atom of each OR-pair kept) once per union mode; the set oracle, the
model and the CLI all evaluate those cached plans under an instance's
(anchors, relations) in one forward pass over the nodes, and the sampler
binds an instance's slots by walking a structure's plan backwards.
"""

from __future__ import annotations

import functools
import itertools
import re
from dataclasses import dataclass, replace

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
NEGATION_STRUCTURES = tuple(s for s, t in TEMPLATES.items() if any(a.negated for a in t.atoms))
EPFO_STRUCTURES = tuple(s for s in TEMPLATES if s not in NEGATION_STRUCTURES)
TRAIN_STRUCTURES = ("1p", "2p", "3p", "2i", "3i", "2in", "3in", "inp", "pin", "pni")
UNION_MODES = ("dnf", "dm")


@dataclass(frozen=True)
class QueryInstance:
    """A structure's slot bindings: positional anchor and relation ids.
    Raises DataError on an unknown structure or a wrong slot count."""

    structure: str
    anchors: tuple[int, ...]
    relations: tuple[int, ...]

    def __post_init__(self):
        template = TEMPLATES.get(self.structure)
        if template is None:
            raise DataError(f"unknown query structure {self.structure!r}")
        for kind, want, got in (("anchors", template.num_anchors, self.anchors),
                                ("relations", template.num_relations, self.relations)):
            if len(got) != want:
                raise DataError(f"{self.structure} expects {want} {kind}, got {len(got)}")

    def template(self) -> Template:
        return TEMPLATES[self.structure]


# --- plans -------------------------------------------------------------------

@dataclass(frozen=True)
class Anchor:
    slot: int  # position in the instance's anchors


@dataclass(frozen=True)
class Relate:
    slot: int  # position in the instance's relations
    input: int


@dataclass(frozen=True)
class Conjoin:
    inputs: tuple[int, ...]
    negated: tuple[int, ...] = ()  # the inputs whose complement is conjoined


@dataclass(frozen=True)
class Disjoin:
    inputs: tuple[int, ...]


PlanNode = Anchor | Relate | Conjoin | Disjoin


@dataclass(frozen=True)
class QueryPlan:
    """Node tree in topological order; node ids are tuple positions and the
    last node is the answer. Frozen, since one cached plan serves every query
    of its structure.

    Valid by construction: raises DataError unless the plan has a node, every
    input id comes before its node, each Conjoin / Disjoin has two or more
    inputs, each Conjoin's ``negated`` is a proper subset of its inputs,
    every node but the last feeds exactly one later node, and no two Anchors
    and no two Relates bind the same slot. Evaluators can therefore evaluate
    the nodes in order, once each, without checking them, and answer with the
    last value; a Conjoin negates only its flagged inputs and always has an
    input it does not negate. The sampler walks the tree back from its last
    node, so each node is reached once and each slot bound once.
    """

    nodes: tuple[PlanNode, ...]

    def __post_init__(self):
        if not self.nodes:
            raise DataError("a plan needs at least one node")
        fed = [0] * len(self.nodes)
        bound: set[tuple[str, int]] = set()
        for idx, node in enumerate(self.nodes):
            if isinstance(node, Anchor):
                inputs = ()
            elif isinstance(node, Relate):
                inputs = (node.input,)
            elif isinstance(node, (Conjoin, Disjoin)):
                inputs = node.inputs
                if len(inputs) < 2:
                    raise DataError(f"plan node {idx}: a join needs two or more inputs")
            else:
                raise DataError(f"plan node {idx}: unknown node type {type(node).__name__}")
            if not all(0 <= i < idx for i in inputs):
                raise DataError(f"plan node {idx}: input {inputs} does not come before it")
            if isinstance(node, Conjoin) and not set(node.negated) < set(inputs):
                raise DataError(f"plan node {idx}: negated inputs {node.negated} are not "
                                f"a proper subset of its inputs {inputs}")
            if isinstance(node, (Anchor, Relate)):
                slot = ("anchor" if isinstance(node, Anchor) else "relation", node.slot)
                if slot in bound:
                    raise DataError(f"plan node {idx}: {slot[0]} slot {slot[1]} is bound twice")
                bound.add(slot)
            for i in inputs:
                fed[i] += 1
        unfed = [i for i in range(len(self.nodes) - 1) if not fed[i]]
        if unfed:
            raise DataError(f"plan nodes {unfed} feed no later node")
        shared = [i for i, count in enumerate(fed) if count > 1]
        if shared:
            raise DataError(f"plan nodes {shared} feed more than one later node")


def compile_instance(structure: str) -> QueryPlan:
    """Convert a structure into its Skolem set-logic plan over slots.

    Each FOL atom ``rel(x, y)`` becomes a relation application to the plan of
    ``x``; atoms sharing a destination combine with conjunction, or with
    disjunction where the template OR-joins them; a negated atom's relation
    node is listed in its conjunction's ``negated``. Callers want the cached
    ``structure_plan``.
    """
    try:
        template = TEMPLATES[structure]
    except KeyError:
        raise DataError(f"unknown query structure {structure!r}") from None
    return _compile(template)


def _compile(template: Template) -> QueryPlan:
    """The template's plan. ``_build_term`` appends a term's node after every
    node it reads, so the target's node comes last: the plan's answer."""
    nodes: list[PlanNode] = []
    _build_term(TARGET_TERM, template, nodes)
    return QueryPlan(tuple(nodes))


def _build_term(term: str, template: Template, nodes: list[PlanNode]) -> int:
    """Append the nodes defining ``term`` to ``nodes``; returns its node id. (A
    recursive closure would be a reference cycle left to the garbage collector.)
    A term read by two atoms is built twice, so its slots repeat and
    ``QueryPlan`` refuses the plan. Raises DataError on a negated atom that no
    conjunction joins: one alone at its term or in an OR pair."""
    if term in ANCHOR_TERMS:
        nodes.append(Anchor(ANCHOR_TERMS.index(term)))
        return len(nodes) - 1
    incoming = [i for i, atom in enumerate(template.atoms) if atom.dst == term]
    if not incoming:
        raise DataError(f"term {term!r} has no defining atom")
    parts, negated = [], []
    for i in incoming:
        atom = template.atoms[i]
        source = _build_term(atom.src, template, nodes)
        nodes.append(Relate(atom.relation, source))
        parts.append(len(nodes) - 1)
        if atom.negated:
            negated.append(len(nodes) - 1)
    conjunction = len(parts) > 1 and frozenset(incoming) not in template.or_pairs
    if negated and not conjunction:
        raise DataError(f"template {template.name}: a negated atom into {term!r} "
                        f"is not joined by a conjunction")
    if len(parts) == 1:
        return parts[0]
    nodes.append(Conjoin(tuple(parts), tuple(negated)) if conjunction else Disjoin(tuple(parts)))
    return len(nodes) - 1


@functools.cache
def structure_plan(structure: str) -> QueryPlan:
    """The structure's plan, compiled once per process; a QueryPlan is valid
    by construction, so nothing checks it again."""
    return compile_instance(structure)


@functools.cache
def plan_branches(structure: str, union_mode: str) -> tuple[QueryPlan, ...]:
    """The structure's plan alone under De Morgan union, or its DNF branches.

    A DNF branch is the template with one atom of each OR-pair kept, compiled
    like any template; branches follow the kept atoms' order. The union of
    the branches' answers is the plan's because no negated atom depends on a
    term an OR defines and each such term feeds one atom: relation following
    and conjunction distribute over union, negation does not. Built once per
    process and union mode.
    """
    if union_mode not in UNION_MODES:
        raise DataError(f"unknown union mode {union_mode!r}")
    plan = structure_plan(structure)
    template = TEMPLATES[structure]
    if union_mode == "dm" or not template.or_pairs:
        return (plan,)
    pairs = sorted(sorted(pair) for pair in template.or_pairs)
    joined = {i for pair in pairs for i in pair}
    branches = []
    for kept in itertools.product(*pairs):
        atoms = tuple(a for i, a in enumerate(template.atoms) if i not in joined or i in kept)
        branches.append(_compile(replace(template, atoms=atoms, or_pairs=frozenset())))
    return tuple(branches)


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
    """Resolve a JSONL query record against the graph's vocabularies. Raises
    DataError on a missing field, a ``structure`` that is not a string, name
    fields that are not lists of names, an unknown name, or an answer name
    listed twice in one field."""
    try:
        structure = record["structure"]
        fields = {"anchors": record["anchors"], "relations": record["relations"],
                  "easy": record.get("easy", []), "hard": record.get("hard", [])}
    except KeyError as exc:
        raise DataError(f"query record missing field {exc}") from None
    if not isinstance(structure, str):
        raise DataError(f"query record field 'structure' must be a string, "
                        f"got {type(structure).__name__}")
    for name, names in fields.items():
        if not isinstance(names, list) or not all(isinstance(n, str) for n in names):
            raise DataError(f"query record field {name!r} must be a list of names")
    instance = QueryInstance(structure,
                             tuple(graph.entities.id_of(n) for n in fields["anchors"]),
                             tuple(graph.relations.id_of(n) for n in fields["relations"]))
    easy, hard = (tuple(sorted(graph.entities.id_of(n) for n in fields[name]))
                  for name in ("easy", "hard"))
    for name, ids in (("easy", easy), ("hard", hard)):
        twice = [graph.entities.name_of(a) for a, b in zip(ids, ids[1:]) if a == b]
        if twice:
            raise DataError(f"query record field {name!r} lists {twice[0]!r} more than once")
    return instance, easy, hard
