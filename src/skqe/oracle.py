"""Exact set-semantics evaluation of query plans and dataset generation."""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import algebra
from .algebra import (
    Anchor,
    Conjoin,
    Disjoin,
    Negate,
    QueryInstance,
    QueryPlan,
    Relate,
    TEMPLATES,
)
from .errors import DataError
from .kg import SPLITS, AdjacencyIndex, KnowledgeGraph, build_index

log = logging.getLogger(__name__)

EXHAUSTIVE_GUARD = 10**8
RETRY_FACTOR = 100

DATASET_MODES = ("generalization", "entailment", "train")


def follow(relation: int, inputs, index: AdjacencyIndex) -> set[int]:
    """Union of tails over all input entities: the maximal Skolem assignment."""
    out: set[int] = set()
    for head in inputs:
        out.update(index.lookup(head, relation))
    return out


def _eval_node(plan: QueryPlan, node_id: int, anchors, relations, index: AdjacencyIndex,
               cache: dict[int, tuple[set[int], bool]]) -> tuple[set[int], bool]:
    """Evaluate to (set, complemented); complements stay lazy inside conjunctions."""
    if node_id in cache:
        return cache[node_id]
    node = plan.nodes[node_id]
    if isinstance(node, Anchor):
        result = ({anchors[node.slot]}, False)
    elif isinstance(node, Relate):
        base, complemented = _eval_node(plan, node.input, anchors, relations, index, cache)
        if complemented:
            base = set(range(index.num_entities)) - base
        result = (follow(relations[node.slot], base, index), False)
    elif isinstance(node, Negate):
        base, complemented = _eval_node(plan, node.input, anchors, relations, index, cache)
        result = (base, not complemented)
    elif isinstance(node, Conjoin):
        parts = [_eval_node(plan, i, anchors, relations, index, cache) for i in node.inputs]
        positives = [s for s, c in parts if not c]
        negatives = [s for s, c in parts if c]
        if positives:
            acc = set(positives[0])
            for s in positives[1:]:
                acc &= s
            for s in negatives:
                acc -= s
            result = (acc, False)
        else:
            # all inputs complemented: intersection of complements
            acc = set(negatives[0])
            for s in negatives[1:]:
                acc |= s
            result = (acc, True)
    elif isinstance(node, Disjoin):
        parts = [_eval_node(plan, i, anchors, relations, index, cache) for i in node.inputs]
        positives = [s for s, c in parts if not c]
        negatives = [s for s, c in parts if c]
        if negatives:
            acc = set(negatives[0])
            for s in negatives[1:]:
                acc &= s
            for s in positives:
                acc -= s
            result = (acc, True)
        else:
            acc = set()
            for s in positives:
                acc |= s
            result = (acc, False)
    else:
        raise DataError(f"unknown plan node {type(node).__name__}")
    cache[node_id] = result
    return result


def eval_plan(plan: QueryPlan, anchors, relations, index: AdjacencyIndex) -> set[int]:
    """Answer set of a plan under its slot bindings, evaluated bottom-up;
    complements are taken against the full universe.

    ``plan`` is one structure's plan (``algebra.structure_plan``) or one of
    its DNF branches, valid by construction, and ``anchors`` / ``relations``
    are an instance's ids for its anchor and relation slots.
    """
    answers, complemented = _eval_node(plan, plan.sink, anchors, relations, index, {})
    if complemented:
        return set(range(index.num_entities)) - answers
    return answers


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

    def structures(self) -> tuple[str, ...]:
        seen = []
        for sample in self.samples:
            if sample.instance.structure not in seen:
                seen.append(sample.instance.structure)
        return tuple(seen)

    def by_structure(self) -> dict[str, list[QuerySample]]:
        grouped: dict[str, list[QuerySample]] = {}
        for sample in self.samples:
            grouped.setdefault(sample.instance.structure, []).append(sample)
        return grouped

    def verify(self) -> None:
        for sample in self.samples:
            if set(sample.easy) & set(sample.hard):
                raise DataError("easy/hard answer sets overlap")


def _incoming_table(index: AdjacencyIndex) -> dict[int, list[tuple[int, int]]]:
    incoming: dict[int, list[tuple[int, int]]] = {}
    for (h, r), tails in sorted(index.forward.items()):
        for t in tails:
            incoming.setdefault(t, []).append((h, r))
    return incoming


def _walk_instance(template, answer: int, incoming, rng) -> QueryInstance | None:
    """Instantiate a template by walking its atoms backwards from ``answer``.

    Negated atoms are walked like positive ones so the sampled negation is
    informative (it actually excludes the walked entity).
    """
    assign: dict[str, int] = {algebra.TARGET_TERM: answer}
    relations: dict[int, int] = {}
    # walk atoms in reverse dependency order: dst always assigned before src
    pending = list(template.atoms)
    while pending:
        progressed = False
        for atom in list(pending):
            if atom.dst not in assign:
                continue
            pending.remove(atom)
            progressed = True
            options = incoming.get(assign[atom.dst], [])
            if not options:
                return None
            head, rel = options[int(rng.integers(len(options)))]
            if atom.relation in relations and relations[atom.relation] != rel:
                # positional slot already walked through another atom; reuse it
                rel = relations[atom.relation]
            relations[atom.relation] = rel
            if atom.src in assign:
                continue  # only the relation mattered; source already fixed
            assign[atom.src] = head
        if not progressed:
            raise DataError(f"template {template.name} atoms are not a DAG")
    anchors = tuple(
        assign[a] for a in algebra.ANCHOR_TERMS[: template.num_anchors]
    )
    rels = tuple(relations[i] for i in range(template.num_relations))
    return QueryInstance(template.name, anchors, rels)


def sample_queries(
    graph: KnowledgeGraph,
    structure: str,
    count: int,
    seed: int,
    mode: str,
    full_index: AdjacencyIndex | None = None,
    train_index: AdjacencyIndex | None = None,
) -> list[QuerySample]:
    """Sample grounded queries with non-empty answers by inverse random walks.

    Modes: ``generalization`` walks the full graph and keeps only queries with
    at least one answer requiring a held-out edge (easy = train answers,
    hard = the rest); ``entailment`` walks the full graph with easy = full
    answers; ``train`` restricts both walking and answers to training edges.
    """
    if mode not in DATASET_MODES:
        raise DataError(f"unknown dataset mode {mode!r}")
    if count < 1:
        raise DataError("count must be at least 1")
    template = TEMPLATES[structure]
    plan = algebra.structure_plan(structure)
    if full_index is None:
        full_index = build_index(graph, SPLITS)
    if train_index is None:
        train_index = build_index(graph, ("train",))
    walk_index = train_index if mode == "train" else full_index
    incoming = _incoming_table(walk_index)
    tails = sorted(incoming)
    if not tails:
        raise DataError("graph subset has no edges to walk")

    rng = np.random.default_rng([seed, algebra.STRUCTURE_NAMES.index(structure)])
    samples: list[QuerySample] = []
    seen: set[QueryInstance] = set()
    budget = RETRY_FACTOR * count
    attempts = 0
    while len(samples) < count and attempts < budget:
        attempts += 1
        answer = tails[int(rng.integers(len(tails)))]
        instance = _walk_instance(template, answer, incoming, rng)
        if instance is None or instance in seen:
            continue
        bindings = instance.anchors, instance.relations
        if mode == "train":
            easy = eval_plan(plan, *bindings, train_index)
            hard: set[int] = set()
            if not easy:
                continue
        elif mode == "entailment":
            easy = eval_plan(plan, *bindings, full_index)
            hard = set()
            if not easy:
                continue
        else:
            full = eval_plan(plan, *bindings, full_index)
            if not full:
                continue
            # negation queries can lose train-only answers on the full graph;
            # keep easy inside the full answer set so easy + hard partitions it
            easy = eval_plan(plan, *bindings, train_index) & full
            hard = full - easy
            if not hard:
                continue
        seen.add(instance)
        samples.append(
            QuerySample(instance, tuple(sorted(easy)), tuple(sorted(hard)))
        )
    if len(samples) < count:
        log.warning(
            "sampled only %d/%d %s queries within the retry budget",
            len(samples), count, structure,
        )
    return samples


def sample_dataset(
    graph: KnowledgeGraph,
    structures: tuple[str, ...],
    per_structure: int,
    seed: int,
    mode: str,
    negation_frac: float = 1.0,
) -> QueryDataset:
    """Sample a dataset across structures, optionally thinning negation forms."""
    full_index = build_index(graph, SPLITS)
    train_index = build_index(graph, ("train",))
    samples: list[QuerySample] = []
    counts: dict[str, int] = {}
    for structure in structures:
        count = per_structure
        if structure in algebra.NEGATION_STRUCTURES:
            count = max(1, int(round(per_structure * negation_frac)))
        got = sample_queries(
            graph, structure, count, seed, mode,
            full_index=full_index, train_index=train_index,
        )
        counts[structure] = len(got)
        samples.extend(got)
    dataset = QueryDataset(
        samples,
        metadata={
            "graph_hash": graph.content_hash(),
            "mode": mode,
            "seed": seed,
            "counts": counts,
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


def read_dataset(path: str | Path, graph: KnowledgeGraph,
                 check_hash: bool = True) -> QueryDataset:
    """Read a JSONL dataset, verifying the stored graph hash when present."""
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
            if "meta" in obj:
                metadata = obj["meta"]
                continue
            instance, easy, hard = algebra.record_to_instance(obj, graph)
            samples.append(QuerySample(instance, easy, hard))
    if check_hash and metadata.get("graph_hash"):
        actual = graph.content_hash()
        if metadata["graph_hash"] != actual:
            raise DataError(
                f"dataset {path} was generated for a different graph "
                f"(hash {metadata['graph_hash'][:12]}… vs {actual[:12]}…)"
            )
    dataset = QueryDataset(samples, metadata)
    dataset.verify()
    return dataset
