"""Exact set-semantics evaluation of query plans and dataset generation.

``eval_plan`` answers a cached structure plan (or DNF branch) under an
instance's slot bindings in one forward pass over its nodes, each node a
plain set: a conjunction subtracts the sets of the inputs it flags as
negated from the intersection of the others, so no complement is formed.
``exhaustive_eval`` is the plan-free brute-force reference.

``sample_queries`` draws queries by inverse random walks: it draws an answer
entity, then walks the template's atoms backwards from it in
``walk_order(template)`` (worked out once per template) through the walked
index's ``walk_table`` (int64 CSR arrays, built once per ``AdjacencyIndex``).
Walks are drawn ``WALK_BATCH`` attempts at a time: one uniform matrix per
batch, one column per attempt, walked with a few numpy calls per step. The
attempts are then taken one at a time, in order, so a (graph, structure,
count, seed, mode) request always yields the same queries, and one that gets
all of its k queries yields the first k of any larger request. Only the
(anchors, relations) bindings of an attempt are kept until its answers pass
the mode's filter; duplicates are dropped.

Before any ``eval_plan``, ``answer_bound`` bounds every attempt's answer-set
size with numpy, a whole batch at once, from the walked index's out-degrees
(``AdjacencyIndex.out_degree``): the size of a one-hop set is its degree, a
conjunction is no larger than its smallest non-negated input, and an input
it negates removes at least the walked entity, since the walk drew the
negated atom's edge into it too. An attempt whose bound is below 1 has no
answers on the walked index, the index every mode's first filter answers
on, so it would have been rejected anyway: it is dropped like a dead walk,
and no dataset or attempt count changes. ``sample_dataset`` samples several
structures over one pair of indexes, recording the count and the attempts of
each, and ``write_dataset`` / ``read_dataset`` store datasets as JSONL. The
``DATASET_MODES`` are ``train``, what ``training.train`` fits, and ``generalization``.
"""

from __future__ import annotations

import functools
import json
import logging
from dataclasses import dataclass, field
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import algebra
from .algebra import (
    Anchor,
    Conjoin,
    QueryInstance,
    QueryPlan,
    Relate,
    TEMPLATES,
    Template,
)
from .errors import DataError
from .kg import SPLITS, AdjacencyIndex, KnowledgeGraph, build_index

log = logging.getLogger(__name__)

EXHAUSTIVE_GUARD = 10**8
RETRY_FACTOR = 100
WALK_BATCH = 256  # sampler attempts walked per uniform draw

DATASET_MODES = ("generalization", "train")


def follow(relation: int, inputs, index: AdjacencyIndex) -> set[int]:
    """Union of tails over all input entities: the maximal Skolem assignment."""
    out: set[int] = set()
    for head in inputs:
        out.update(index.lookup(head, relation))
    return out


def eval_plan(plan: QueryPlan, anchors, relations, index: AdjacencyIndex) -> set[int]:
    """Answer set of a plan under its slot bindings.

    ``plan`` is one structure's plan (``algebra.structure_plan``) or one of
    its DNF branches, valid by construction, and ``anchors`` / ``relations``
    are an instance's ids for its anchor and relation slots. One forward pass
    over the nodes suffices because every input comes before its node. A
    Conjoin subtracts the sets of its ``negated`` inputs from the
    intersection of its other inputs, of which ``QueryPlan`` guarantees one.
    """
    values: list[set[int]] = []
    for node in plan.nodes:
        if isinstance(node, Relate):
            values.append(follow(relations[node.slot], values[node.input], index))
        elif isinstance(node, Anchor):
            values.append({anchors[node.slot]})
        elif isinstance(node, Conjoin):
            positives = [values[i] for i in node.inputs if i not in node.negated]
            negatives = [values[i] for i in node.negated]
            acc = positives[0].intersection(*positives[1:])
            acc.difference_update(*negatives)
            values.append(acc)
        else:  # Disjoin
            values.append(set().union(*(values[i] for i in node.inputs)))
    return values[-1]


def exhaustive_eval(instance: QueryInstance, graph: KnowledgeGraph,
                    splits: tuple[str, ...] = SPLITS) -> set[int]:
    """Brute-force the query body per candidate entity, plan-free.

    Every entity is tested for membership of every variable by scanning the
    triple subset literally. Bound variables take their maximal satisfying
    subsets, so a negated atom excludes a candidate when ANY member of the
    negated source reaches it; an empty source makes the negation vacuous.
    This is the lifted reading of the query forms (variables denote entity
    subsets, not single witnesses), which the relation-following semantics of
    the plan evaluator must reproduce exactly.

    ``EXHAUSTIVE_GUARD`` bounds N^(vars+1), the number of assignments of the
    bound variables and the target over N entities, which a naive
    enumeration would visit; beyond it this raises DataError. That is not
    this scan's cost: membership is memoized per (term, entity), so the scan
    makes at most N² triple lookups per atom ((vars+1)·N² for a chain), and
    the guard refuses queries (``3p`` at N = 2,000, say) that it could still
    answer in polynomial time.
    """
    template = instance.template()
    n_vals = graph.num_entities
    if n_vals ** (len(template.bound_vars) + 1) > EXHAUSTIVE_GUARD:
        raise DataError(
            f"graph too large for exhaustive evaluation: "
            f"{n_vals}^{len(template.bound_vars) + 1} assignments exceed {EXHAUSTIVE_GUARD}"
        )
    wanted = set(splits)
    triples = {t for t, s in graph.triples.items() if s in wanted}
    anchor_of = {
        term: instance.anchors[i]
        for i, term in enumerate(algebra.ANCHOR_TERMS[: template.num_anchors])
    }
    memo: dict[tuple[str, int], bool] = {}

    def member(term: str, entity: int) -> bool:
        if term in anchor_of:
            return entity == anchor_of[term]
        key = (term, entity)
        if key in memo:
            return memo[key]
        satisfied: dict[int, bool] = {}
        for i, atom in enumerate(template.atoms):
            if atom.dst != term:
                continue
            rel = instance.relations[atom.relation]
            reached = any(
                (v, rel, entity) in triples and member(atom.src, v)
                for v in range(n_vals)
            )
            satisfied[i] = reached != atom.negated
        result = True
        consumed: set[int] = set()
        for pair in template.or_pairs:
            if pair <= satisfied.keys():
                result = result and any(satisfied[i] for i in pair)
                consumed |= pair
        for i, value in satisfied.items():
            if i not in consumed:
                result = result and value
        memo[key] = result
        return result

    return {t for t in range(n_vals) if member(algebra.TARGET_TERM, t)}


@dataclass
class QuerySample:
    instance: QueryInstance
    easy: tuple[int, ...]
    hard: tuple[int, ...]

    @property
    def answers(self) -> tuple[int, ...]:
        return tuple(sorted(set(self.easy) | set(self.hard)))


@dataclass
class QueryDataset:
    samples: list[QuerySample] = field(default_factory=list)
    metadata: dict = field(default_factory=dict)

    @property
    def mode(self) -> str:
        return self.metadata.get("mode", "")

    def by_structure(self) -> dict[str, list[QuerySample]]:
        grouped: dict[str, list[QuerySample]] = {}
        for sample in self.samples:
            grouped.setdefault(sample.instance.structure, []).append(sample)
        return grouped

    def verify(self) -> None:
        for sample in self.samples:
            if set(sample.easy) & set(sample.hard):
                raise DataError("easy/hard answer sets overlap")


class WalkOrder(NamedTuple):
    """A template's atoms in the order the sampler walks them. Terms are
    numbered from the target (0) in the order the walk binds them; each step
    binds a new source term and its own relation slot."""

    steps: tuple[tuple[int, int, int], ...]  # (dst term, src term, relation slot)
    num_terms: int
    anchors: tuple[int, ...]  # term numbers of the anchor slots
    num_relations: int


@functools.cache
def walk_order(template: Template) -> WalkOrder:
    """Work out once per template the order in which the inverse walk visits
    its atoms: in passes over the pending atoms, each atom whose destination
    is already bound, in template order. Each step binds its atom's source
    term and relation slot. Raises DataError when the atoms are not a DAG
    rooted at the target, or when a step would bind a term or a relation
    slot that an earlier step bound (no template in ``algebra.TEMPLATES``
    has such an atom)."""
    number = {algebra.TARGET_TERM: 0}
    walked: set[int] = set()
    steps = []
    pending = list(template.atoms)
    while pending:
        progressed = False
        for atom in list(pending):
            if atom.dst not in number:
                continue
            if atom.src in number or atom.relation in walked:
                raise DataError(f"template {template.name}: atom {atom.src} -> {atom.dst} "
                                f"rebinds a term or reuses relation slot {atom.relation}")
            pending.remove(atom)
            progressed = True
            number[atom.src] = len(number)
            walked.add(atom.relation)
            steps.append((number[atom.dst], number[atom.src], atom.relation))
        if not progressed:
            raise DataError(f"template {template.name} atoms are not a DAG")
    anchors = tuple(number[a] for a in algebra.ANCHOR_TERMS[: template.num_anchors])
    return WalkOrder(tuple(steps), len(number), anchors, template.num_relations)


def answer_bound(plan: QueryPlan, anchors: np.ndarray, relations: np.ndarray,
                 index: AdjacencyIndex) -> np.ndarray:
    """An upper bound on ``len(eval_plan(plan, anchors[:, j], relations[:, j],
    index))`` for every column j of the int64 arrays ``anchors`` (one row per
    anchor slot) and ``relations`` (one row per relation slot): float64, inf
    where there is no bound.

    Precondition: every column is an inverse walk of the plan's template on
    ``index`` (``_walk_batch``), so each step bound a new source term and its
    own relation slot (``walk_order``). Then each Anchor holds its walked
    entity, and a Relate whose input holds its entity holds its own, since
    the walk drew an edge of that relation from one to the other.
    For other bindings the bound can fall below the answer-set size.

    One forward pass over the nodes keeps, for each node, a bound on the size
    of its set as ``eval_plan`` holds it and whether the set provably holds
    the walked entity of the node's term:

    - an Anchor is bounded by 1;
    - a Relate out of an Anchor by the exact out-degree of (anchor, relation);
    - any other Relate by 0 where its input is empty (bounded below 1), and
      not at all elsewhere;
    - a Conjoin by the least bound of its non-negated inputs, less 1 where
      every non-negated input and some ``negated`` input hold the walked
      entity: the entity is then in the smallest non-negated set and
      removed from the result;
    - a Disjoin not at all.
    """
    columns = anchors.shape[1]
    # per node: (bound, holds the walked entity)
    values: list[tuple[np.ndarray, bool]] = []
    for node in plan.nodes:
        if isinstance(node, Anchor):
            values.append((np.ones(columns), True))
        elif isinstance(node, Relate):
            bound, held = values[node.input]
            source = plan.nodes[node.input]
            if isinstance(source, Anchor):
                bound = index.out_degree(anchors[source.slot], relations[node.slot])
                bound = bound.astype(np.float64)
            else:
                bound = np.where(bound < 1, 0.0, np.inf)
            values.append((bound, held))
        elif isinstance(node, Conjoin):
            positives = [values[i] for i in node.inputs if i not in node.negated]
            negatives = [values[i][1] for i in node.negated]
            bound = np.minimum.reduce([bound for bound, _ in positives])
            held = all(held for _, held in positives)
            if held and any(negatives):
                bound = np.maximum(bound - 1, 0.0)
            values.append((bound, held and not negatives))
        else:  # Disjoin
            values.append((np.full(columns, np.inf), False))
    return values[-1][0]


class WalkBatch(NamedTuple):
    """The bindings of ``WALK_BATCH`` inverse walks, one entry per attempt."""

    anchors: list[list[int]]
    relations: list[list[int]]
    alive: list[bool]  # False where the walk died or its answer set is provably empty


def _walk_batch(order: WalkOrder, plan: QueryPlan, index: AdjacencyIndex,
                draws: np.ndarray) -> WalkBatch:
    """Walk a template's atoms backwards from one answer per column of ``draws``
    and drop the attempts whose answer set on ``index`` is provably empty.

    ``draws`` holds uniforms in [0, 1), one row per random choice and one
    column per attempt. Row 0 picks the answer, ``tails[floor(u * len(tails))]``;
    row s + 1 picks step s's edge, ``floor(u * deg)`` among the ``deg`` rows of
    the walk table into that step's destination (floor(u * deg) < deg for
    every u < 1 in float64). Each step binds its source term to the edge's
    head and its relation slot to the edge's relation (``walk_order``). An
    attempt dies at a destination without incoming edges; its later steps
    walk from a stand-in edge, so no index leaves the table, and their
    bindings are ignored. Negated atoms are walked like positive ones so the
    sampled negation is informative (it actually excludes the walked entity).
    So the walked entity is never an answer of a conjunction that negates an
    input, and the intersection of its other inputs needs a second member: where
    ``answer_bound(plan, ...)`` (the structure's ``plan``; the columns are
    inverse walks, as it requires) is below 1 the answer set on ``index`` is
    empty and the attempt is marked dead as well. Every mode's first filter
    answers on the walked index, so such an attempt would have been rejected
    after an ``eval_plan``; pruning it changes neither a dataset nor its
    attempt counts.
    """
    offsets, heads, rels = index.walk_table
    tails = index.tails
    terms = np.empty((order.num_terms, draws.shape[1]), dtype=np.int64)
    relations = np.zeros((order.num_relations, draws.shape[1]), dtype=np.int64)
    terms[0] = tails[(draws[0] * len(tails)).astype(np.int64)]
    alive = np.ones(draws.shape[1], dtype=bool)
    for u, (dst, src, slot) in zip(draws[1:], order.steps):
        node = terms[dst]
        start = offsets[node]
        degree = offsets[node + 1] - start
        has_edge = degree > 0
        alive &= has_edge
        edge = np.where(has_edge, start + (u * degree).astype(np.int64), 0)
        terms[src] = heads[edge]
        relations[slot] = rels[edge]
    anchors = terms[list(order.anchors)]
    alive &= answer_bound(plan, anchors, relations, index) >= 1
    return WalkBatch(anchors.T.tolist(), relations.T.tolist(), alive.tolist())


def _walk_instance(batch: WalkBatch, i: int) -> tuple[tuple[int, ...], tuple[int, ...]] | None:
    """Attempt ``i``'s (anchors, relations) bindings from its batch, or None
    where its walk died. Called once per attempt."""
    if not batch.alive[i]:
        return None
    return tuple(batch.anchors[i]), tuple(batch.relations[i])


def _walks(order: WalkOrder, plan: QueryPlan, index: AdjacencyIndex,
           rng: np.random.Generator):
    """Each attempt's bindings (or None), in order, ``WALK_BATCH`` walks at a
    time: one ``(1 + steps, WALK_BATCH)`` uniform draw per batch."""
    while True:
        batch = _walk_batch(order, plan, index,
                            rng.random((1 + len(order.steps), WALK_BATCH)))
        for i in range(WALK_BATCH):
            yield _walk_instance(batch, i)


class QuerySamples(list):
    """The samples of one ``sample_queries`` request, with the walk attempts
    it took."""

    def __init__(self, samples: list[QuerySample], attempts: int):
        super().__init__(samples)
        self.attempts = attempts


def sample_queries(
    graph: KnowledgeGraph,
    structure: str,
    count: int,
    seed: int,
    mode: str,
    full_index: AdjacencyIndex,
    train_index: AdjacencyIndex,
) -> QuerySamples:
    """Sample grounded queries with non-empty answers by inverse random walks.

    Modes: ``generalization`` walks the full graph (``full_index``) and keeps
    only queries with at least one answer requiring a held-out edge (easy =
    train answers, from ``train_index``, hard = the rest); ``train``
    restricts both walking and answers to training edges (``train_index``).

    Walks are drawn ``WALK_BATCH`` at a time from a generator seeded with
    ``[seed, structure index]`` and taken one attempt at a time, in order:
    an attempt is dropped if its walk died, its bindings were seen before or
    its answers fail the mode's filter. An attempt whose answer set on the
    walked index ``answer_bound`` proves empty is dropped like a dead walk,
    without an ``eval_plan``: it would fail the filter, so the queries and
    the attempt count are those of evaluating it. Sampling stops at
    ``count`` queries or after ``RETRY_FACTOR * count`` attempts; walks drawn
    past that point are not attempts. The draws do not depend on ``count``, so a request that
    gets all of its k queries returns the first k of any larger request.
    """
    if mode not in DATASET_MODES:
        raise DataError(f"unknown dataset mode {mode!r}")
    if count < 1:
        raise DataError("count must be at least 1")
    plan = algebra.structure_plan(structure)
    order = walk_order(TEMPLATES[structure])
    walk_index = train_index if mode == "train" else full_index
    if not len(walk_index.tails):
        raise DataError("graph subset has no edges to walk")

    rng = np.random.default_rng([seed, algebra.STRUCTURE_NAMES.index(structure)])
    samples: list[QuerySample] = []
    seen: set[tuple[tuple[int, ...], tuple[int, ...]]] = set()
    walks = _walks(order, plan, walk_index, rng)
    attempts = 0
    while len(samples) < count and attempts < RETRY_FACTOR * count:
        attempts += 1
        bindings = next(walks)
        if bindings is None or bindings in seen:
            continue
        if mode == "generalization":
            full = eval_plan(plan, *bindings, full_index)
            if not full:
                continue
            # negation queries can lose train-only answers on the full graph;
            # keep easy inside the full answer set so easy + hard partitions it
            easy = eval_plan(plan, *bindings, train_index) & full
            hard = full - easy
            if not hard:
                continue
        else:  # train answers on the edges it walks
            easy = eval_plan(plan, *bindings, train_index)
            hard = set()
            if not easy:
                continue
        seen.add(bindings)
        samples.append(QuerySample(QueryInstance(structure, *bindings),
                                   tuple(sorted(easy)), tuple(sorted(hard))))
    if len(samples) < count:
        log.warning(
            "sampled only %d/%d %s queries after %d attempts",
            len(samples), count, structure, attempts,
        )
    return QuerySamples(samples, attempts)


def requested_count(structure: str, per_structure: int, negation_frac: float) -> int:
    """How many ``structure`` queries ``sample_dataset`` asks for: negation
    structures are thinned by ``negation_frac``, to at least one."""
    if structure in algebra.NEGATION_STRUCTURES:
        return max(1, int(round(per_structure * negation_frac)))
    return per_structure


def sample_dataset(
    graph: KnowledgeGraph,
    structures: tuple[str, ...],
    per_structure: int,
    seed: int,
    mode: str,
    negation_frac: float = 1.0,
) -> QueryDataset:
    """Sample a dataset across structures, optionally thinning negation forms.

    Raises DataError on a negative seed, a repeated structure or unless
    ``negation_frac`` is finite and in (0, 1].
    """
    if seed < 0:
        raise DataError(f"seed must be non-negative, got {seed}")
    repeated = sorted({s for s in structures if structures.count(s) > 1})
    if repeated:
        raise DataError(f"repeated structures: {repeated}")
    if not 0 < negation_frac <= 1:  # also false for NaN
        raise DataError(f"negation_frac must be in (0, 1], got {negation_frac}")
    full_index = build_index(graph, SPLITS)
    train_index = build_index(graph, ("train",))
    samples: list[QuerySample] = []
    counts: dict[str, int] = {}
    attempts: dict[str, int] = {}
    for structure in structures:
        got = sample_queries(
            graph, structure, requested_count(structure, per_structure, negation_frac),
            seed, mode, full_index=full_index, train_index=train_index,
        )
        counts[structure] = len(got)
        attempts[structure] = got.attempts
        samples.extend(got)
    dataset = QueryDataset(
        samples,
        metadata={
            "graph_hash": graph.content_hash(),
            "mode": mode,
            "seed": seed,
            "counts": counts,
            "attempts": attempts,
        },
    )
    dataset.verify()
    return dataset


def write_dataset(dataset: QueryDataset, graph: KnowledgeGraph, path: str | Path) -> None:
    """Write the dataset as JSONL, one metadata line followed by query records."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(json.dumps({"meta": dataset.metadata}, sort_keys=True) + "\n")
        for sample in dataset.samples:
            record = algebra.instance_to_record(
                sample.instance, graph, sample.easy, sample.hard
            )
            handle.write(json.dumps(record, sort_keys=True) + "\n")


def read_dataset(path: str | Path, graph: KnowledgeGraph) -> QueryDataset:
    """Read a JSONL dataset, checking its stored graph hash and mode when present."""
    samples: list[QuerySample] = []
    metadata: dict = {}
    with open(path, encoding="utf-8") as handle:
        for line_no, raw in enumerate(handle, start=1):
            line = raw.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise DataError(f"{path}:{line_no}: invalid JSON ({exc})") from None
            if not isinstance(obj, dict):
                raise DataError(f"{path}:{line_no}: expected a JSON object, "
                                f"got {type(obj).__name__}")
            if "meta" in obj:
                metadata = obj["meta"]
                if not isinstance(metadata, dict):
                    raise DataError(f"{path}:{line_no}: 'meta' must be a JSON object")
                continue
            try:
                instance, easy, hard = algebra.record_to_instance(obj, graph)
            except DataError as exc:
                raise DataError(f"{path}:{line_no}: {exc}") from None
            samples.append(QuerySample(instance, easy, hard))
    if "mode" in metadata and metadata["mode"] not in DATASET_MODES:
        raise DataError(f"dataset {path} has mode {metadata['mode']!r}; "
                        f"supported modes are {', '.join(DATASET_MODES)}")
    if metadata.get("graph_hash"):
        actual = graph.content_hash()
        if metadata["graph_hash"] != actual:
            raise DataError(
                f"dataset {path} was generated for a different graph "
                f"(hash {str(metadata['graph_hash'])[:12]}… vs {actual[:12]}…)"
            )
    dataset = QueryDataset(samples, metadata)
    dataset.verify()
    return dataset
