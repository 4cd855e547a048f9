"""Exact set-semantics evaluation of query plans and dataset generation.

``eval_plan`` answers a cached structure plan (or DNF branch) under an
instance's slot bindings in one forward pass over its nodes, each node a
plain set: a conjunction subtracts the sets of the inputs it flags as
negated from the intersection of the others, so no complement is formed.
``exhaustive_eval`` is the plan-free brute-force reference.

``sample_queries`` draws queries by inverse random walks: it draws an answer
entity, then walks the structure's cached plan backwards from its last node,
breadth first, through the walked index's ``walk_table`` (int64 CSR arrays,
built once per ``AdjacencyIndex``). So one compiled plan drives the oracle,
the sampler and the model. Walks are drawn ``WALK_BATCH`` attempts at a
time: one uniform matrix per batch, one column per attempt, walked with a few
numpy calls per node. The attempts are then taken one at a time, in order,
so a (graph, structure, count, seed, indexes) request always yields the
same queries, and one that gets all of its k queries yields the first k of
any larger request. Only the (anchors, relations) bindings of an attempt are
kept until the sampler's one rule keeps its answers; duplicates are dropped.

Before any ``eval_plan``, ``answer_bound`` bounds every attempt's answer-set
size with numpy, a whole batch at once, from the walked index's out-degrees
(``AdjacencyIndex.out_degree``): the size of a one-hop set is its degree, a
conjunction is no larger than its smallest non-negated input, and an input
it negates removes at least the walked entity, since the walk drew the
negated input's edge into it too. An attempt whose bound is below 1 has no
answers on the walked index, the index the rule answers on first, so it
would have been rejected anyway: it is dropped like a dead walk, and no
dataset or attempt count changes. ``sample_dataset`` samples several
structures over the indexes of a mode's row of splits, recording the count
and the attempts of each; ``write_dataset`` / ``read_dataset`` store JSONL.
"""

from __future__ import annotations

import json
import logging
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import algebra
from .algebra import Anchor, Conjoin, QueryInstance, QueryPlan, Relate
from .errors import DataError
from .kg import SPLITS, AdjacencyIndex, KnowledgeGraph, build_index

log = logging.getLogger(__name__)

EXHAUSTIVE_GUARD = 10**8
RETRY_FACTOR = 100
WALK_BATCH = 256  # sampler attempts walked per uniform draw

# mode -> (walked splits, easy splits); where they differ the mode holds out
# edges, and every query has a hard answer. ``train`` is what training fits;
# ``valid`` and ``test`` nest the graphs as Query2Box and BetaE do (G_train in
# G_valid in G_test), so a test query's hard answers each need a test edge.
DATASET_MODES = {
    "generalization": (SPLITS, ("train",)),
    "train": (("train",), ("train",)),
    "valid": (("train", "valid"), ("train",)),
    "test": (SPLITS, ("train", "valid")),
}


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
        """Refuse overlapping easy and hard answers and, in a mode of
        ``DATASET_MODES``, a query with hard answers where the mode holds out
        no edges or without one where it does. Without a mode, only the first."""
        row = DATASET_MODES.get(self.mode)
        holds_out = row is not None and set(row[0]) != set(row[1])
        for i, sample in enumerate(self.samples):
            if set(sample.easy) & set(sample.hard):
                raise DataError("easy/hard answer sets overlap")
            if row is not None and bool(sample.hard) != holds_out:
                has, need = ("no hard answer", "every") if holds_out else ("hard answers", "no")
                raise DataError(f"{self.mode} query {i} ({sample.instance.structure}) has {has}; "
                                f"{need} {self.mode} query needs a held-out edge")


def answer_bound(plan: QueryPlan, anchors: np.ndarray, relations: np.ndarray,
                 index: AdjacencyIndex) -> np.ndarray:
    """An upper bound on ``len(eval_plan(plan, anchors[:, j], relations[:, j],
    index))`` for every column j of the int64 arrays ``anchors`` (one row per
    anchor slot) and ``relations`` (one row per relation slot): float64, inf
    where there is no bound.

    Precondition: every column is an inverse walk of the plan on ``index``
    (``_walk_batch``): each node has one walked entity, and each Relate's
    input was handed the head of an edge, of the Relate's relation, into the
    Relate's entity. Then each Anchor holds its walked entity, and a Relate
    whose input holds its entity holds its own.
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


def _walk_batch(plan: QueryPlan, index: AdjacencyIndex, draws: np.ndarray) -> WalkBatch:
    """Walk a plan backwards from one answer per column of ``draws`` and drop
    the attempts whose answer set on ``index`` is provably empty.

    ``draws`` holds uniforms in [0, 1), one row per random choice and one
    column per attempt. Row 0 picks the last node's entity, the answer
    ``tails[floor(u * len(tails))]``. The nodes are then visited breadth
    first from the last, inputs queued in input order: a Relate takes the
    next row to pick ``floor(u * deg)`` among the ``deg`` walk-table rows into
    its entity (< deg for every u < 1 in float64), binds its relation slot to
    the edge's relation and hands the edge's head to its input; a Conjoin or
    Disjoin hands its entity to every input, negated ones included, so a
    sampled negation excludes the walked entity; an Anchor binds its slot.
    A ``QueryPlan`` is a tree that binds each slot once, so nothing is bound
    twice. An attempt dies at an entity without incoming edges; its later
    Relates walk from a stand-in edge, so no index leaves the table. Where
    ``answer_bound`` is below 1 the answer set on ``index`` is empty and the
    attempt is marked dead as well: the sampler's rule answers on the walked
    index first, so pruning changes neither a dataset nor its attempt counts.
    """
    offsets, heads, rels = index.walk_table
    tails = index.tails
    columns = draws.shape[1]
    anchors = np.zeros((sum(isinstance(n, Anchor) for n in plan.nodes), columns), dtype=np.int64)
    relations = np.zeros((sum(isinstance(n, Relate) for n in plan.nodes), columns),
                         dtype=np.int64)
    alive = np.ones(columns, dtype=bool)
    rows = iter(draws)
    queue = deque([(len(plan.nodes) - 1, tails[(next(rows) * len(tails)).astype(np.int64)])])
    while queue:
        idx, entity = queue.popleft()
        node = plan.nodes[idx]
        if isinstance(node, Relate):
            start = offsets[entity]
            degree = offsets[entity + 1] - start
            has_edge = degree > 0
            alive &= has_edge
            edge = np.where(has_edge, start + (next(rows) * degree).astype(np.int64), 0)
            relations[node.slot] = rels[edge]
            queue.append((node.input, heads[edge]))
        elif isinstance(node, Anchor):
            anchors[node.slot] = entity
        else:  # Conjoin or Disjoin
            queue.extend((i, entity) for i in node.inputs)
    alive &= answer_bound(plan, anchors, relations, index) >= 1
    return WalkBatch(anchors.T.tolist(), relations.T.tolist(), alive.tolist())


def _walk_instance(batch: WalkBatch, i: int) -> tuple[tuple[int, ...], tuple[int, ...]] | None:
    """Attempt ``i``'s (anchors, relations) bindings from its batch, or None
    where its walk died. Called once per attempt."""
    if not batch.alive[i]:
        return None
    return tuple(batch.anchors[i]), tuple(batch.relations[i])


def _walks(plan: QueryPlan, index: AdjacencyIndex, rng: np.random.Generator):
    """Each attempt's bindings (or None), in order, ``WALK_BATCH`` walks at a
    time: one ``(1 + Relate nodes, WALK_BATCH)`` uniform draw per batch."""
    rows = 1 + sum(isinstance(node, Relate) for node in plan.nodes)
    while True:
        batch = _walk_batch(plan, index, rng.random((rows, WALK_BATCH)))
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
    walk_index: AdjacencyIndex,
    easy_index: AdjacencyIndex,
) -> QuerySamples:
    """Sample grounded queries with non-empty answers by inverse random walks
    of the structure's plan (``_walk_batch``) on ``walk_index``.

    One rule keeps a query, whatever the indexes (``graph`` is unused):

    1. its answers are those on ``walk_index``, and an empty set is dropped;
    2. its easy answers are all of them where both indexes hold the same
       splits, else those that ``easy_index`` also gives;
    3. its hard answers are the rest;
    4. where the splits differ, a query without a hard answer is dropped.

    Walks are drawn ``WALK_BATCH`` at a time from a generator seeded with
    ``[seed, structure index]`` and taken one attempt at a time, in order:
    an attempt is dropped if its walk died (or ``answer_bound`` proves its
    answers on ``walk_index`` empty), its bindings were seen before or the
    rule drops it. Sampling stops at ``count`` queries or after
    ``RETRY_FACTOR * count`` attempts; walks drawn past that point are not
    attempts. The draws do not depend on ``count``, so a request that gets
    all of its k queries returns the first k of any larger request.
    """
    if count < 1:
        raise DataError("count must be at least 1")
    plan = algebra.structure_plan(structure)
    holds_out = walk_index.splits != easy_index.splits
    if not len(walk_index.tails):
        raise DataError("graph subset has no edges to walk")

    rng = np.random.default_rng([seed, algebra.STRUCTURE_NAMES.index(structure)])
    samples: list[QuerySample] = []
    seen: set[tuple[tuple[int, ...], tuple[int, ...]]] = set()
    walks = _walks(plan, walk_index, rng)
    attempts = 0
    while len(samples) < count and attempts < RETRY_FACTOR * count:
        attempts += 1
        bindings = next(walks)
        if bindings is None or bindings in seen:
            continue
        answers = eval_plan(plan, *bindings, walk_index)
        if not answers:
            continue
        # a negation query can lose on walk_index an answer that easy_index
        # gives; keep easy inside the answers so easy + hard partitions them
        easy = eval_plan(plan, *bindings, easy_index) & answers if holds_out else answers
        hard = answers - easy
        if holds_out and not hard:
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

    ``mode`` names a row of ``DATASET_MODES``, whose split sets give
    ``sample_queries`` its indexes, one per distinct set.
    Raises DataError on an unknown mode, a negative seed, a repeated
    structure or unless ``negation_frac`` is finite and in (0, 1].
    """
    if mode not in DATASET_MODES:
        raise DataError(f"unknown dataset mode {mode!r}")
    if seed < 0:
        raise DataError(f"seed must be non-negative, got {seed}")
    repeated = sorted({s for s in structures if structures.count(s) > 1})
    if repeated:
        raise DataError(f"repeated structures: {repeated}")
    if not 0 < negation_frac <= 1:  # also false for NaN
        raise DataError(f"negation_frac must be in (0, 1], got {negation_frac}")
    walked, easy = DATASET_MODES[mode]
    walk_index = build_index(graph, walked)
    easy_index = walk_index if set(easy) == set(walked) else build_index(graph, easy)
    samples: list[QuerySample] = []
    counts: dict[str, int] = {}
    attempts: dict[str, int] = {}
    for structure in structures:
        count = requested_count(structure, per_structure, negation_frac)
        got = sample_queries(graph, structure, count, seed, walk_index, easy_index)
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
    """Read a JSONL dataset, checking its stored graph hash and mode when
    present, and its queries against its mode's row (``QueryDataset.verify``)."""
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
    if "mode" in metadata and metadata["mode"] not in tuple(DATASET_MODES):  # may be unhashable
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
