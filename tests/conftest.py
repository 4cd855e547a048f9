import hashlib
import json
import math
import struct

import numpy as np
import pytest

from skqe import algebra, autodiff as ad, cardinality, kg, oracle, training
from skqe.errors import DataError

UNION_STRUCTURES = tuple(s for s, t in algebra.TEMPLATES.items() if t.or_pairs)


@pytest.fixture(scope="session")
def toy_graph():
    """4 entities, 2 relations: a -r-> b, a -r-> c (train), b -q-> d (test)."""
    graph = kg.KnowledgeGraph(
        kg.Vocabulary(["a", "b", "c", "d"]),
        kg.Vocabulary(["r", "q"]),
    )
    graph.add_triple(0, 0, 1, "train")
    graph.add_triple(0, 0, 2, "train")
    graph.add_triple(1, 1, 3, "test")
    return graph


@pytest.fixture(scope="session")
def small_graph():
    return kg.generate_synthetic(50, 3, 2.0, 0.1, 0.1, seed=1)


@pytest.fixture(scope="session")
def small_index(small_graph):
    return kg.build_index(small_graph)


@pytest.fixture(scope="session")
def placeholder_graph():
    """Vocabulary-only graph for parsing the canonical query forms."""
    return kg.KnowledgeGraph(
        kg.Vocabulary(["a", "b", "c"]),
        kg.Vocabulary(["p", "q", "r"]),
    )


def random_instance(structure: str, rng: np.random.Generator,
                    num_entities: int, num_relations: int) -> algebra.QueryInstance:
    template = algebra.TEMPLATES[structure]
    return algebra.QueryInstance(
        structure,
        tuple(int(x) for x in rng.integers(0, num_entities, template.num_anchors)),
        tuple(int(x) for x in rng.integers(0, num_relations, template.num_relations)),
    )


def binding_arrays(plan, bindings) -> tuple[np.ndarray, np.ndarray]:
    """The anchors and relations arrays of ``oracle.eval_plan``, one column per
    (anchors, relations) pair of ``bindings``."""
    if not bindings:
        return tuple(np.zeros((1 + max(n.slot for n in plan.nodes if isinstance(n, kind)), 0),
                              dtype=np.int64) for kind in (algebra.Anchor, algebra.Relate))
    return tuple(np.array(ids, dtype=np.int64).T for ids in zip(*bindings))


def oracle_columns(plan, bindings, index) -> list[set[int]]:
    """``oracle.eval_plan`` on one column per (anchors, relations) pair of
    ``bindings``, split back into one answer set per column."""
    keys = oracle.eval_plan(plan, *binding_arrays(plan, bindings), index)
    assert keys.dtype == np.int64 and (np.diff(keys) > 0).all()  # ascending, distinct
    sets: list[set[int]] = [set() for _ in bindings]
    for key in keys.tolist():
        sets[key // index.num_entities].add(key % index.num_entities)
    return sets


def oracle_answers(plan, anchors, relations, index) -> set[int]:
    """``oracle.eval_plan`` on one column: the answer set of one instance's bindings."""
    return oracle_columns(plan, [(anchors, relations)], index)[0]


def composed_realize(ctx, pre):
    """Reference for ``ForwardContext.realize`` built from composed tape ops:
    sigmoid, then lower = s1 and upper = s1 + s2 (1 - s1) in bounds mode."""
    sig = ad.sigmoid(pre)
    if ctx.config.mode == "point":
        return sig
    d = ctx.config.d
    lower = ad.slice_last(sig, 0, d)
    upper = lower + ad.slice_last(sig, d, 2 * d) * (1.0 - lower)
    return ad.concat_last([lower, upper])


def composed_distance(ctx, ids: np.ndarray, query):
    """Per-row reference for ``ForwardContext.entity_distance`` built from
    composed tape ops on the realized entity table: gather every drawn row as
    a slot-space leaf (one touch per draw) -> sub -> abs -> mean over slots."""
    ids = np.asarray(ids, dtype=np.int64)
    b, width = ids.shape[0], 2 * ctx.config.d
    emb = ad.reshape(ctx.entity_slots(ids.reshape(-1)), (b, -1, width))
    return _mean_distance(emb, query, ids.shape)


def _gather(table, index: np.ndarray):
    """Rows ``table[index]`` as a tape op whose backward scatters with ``np.add.at``."""
    def backward(g):
        grad = np.zeros_like(table.value)
        np.add.at(grad, index, g)
        table._accumulate(grad)

    return ad.Tensor(table.tape, table.value[index], backward)


def composed_gather_distance(ctx, ids: np.ndarray, query):
    """Per-entity reference for ``ForwardContext.entity_distance`` built from
    composed tape ops on the realized entity table: gather the sorted
    distinct rows once as a slot-space leaf, gather them per draw, then sub
    -> abs -> mean over slots."""
    ids = np.asarray(ids, dtype=np.int64)
    unique, inverse = np.unique(ids.reshape(-1), return_inverse=True)
    b, width = ids.shape[0], 2 * ctx.config.d
    emb = ad.reshape(_gather(ctx.entity_slots(unique), inverse), (b, -1, width))
    return _mean_distance(emb, query, ids.shape)


def _mean_distance(emb, query, shape):
    """Mean L1 distance of (B, K, 2d) slot rows to their (B, 2d) query row."""
    b, width = emb.shape[0], emb.shape[-1]
    dist = ad.mean_axis(ad.absolute(emb - ad.reshape(query, (b, 1, width))), axis=2)
    return ad.reshape(dist, shape)


def composed_group_forward(ctx, group, rows, pos_ids, neg_ids, config):
    """``training._group_forward`` with ``composed_distance`` in place of the
    fused distance; the reference for the training trajectory. Its per-draw
    slot-space touches are merged by ``training._step`` before the step's one
    realization pullback."""
    (query,) = ctx.embed_instances(group.structure, group.anchors[rows], group.relations[rows])
    d_pos = composed_distance(ctx, pos_ids, query)
    d_neg = composed_distance(ctx, neg_ids, query)
    pos_term = -ad.log_sigmoid(config.gamma - d_pos)
    neg_term = -ad.mean_axis(ad.log_sigmoid(d_neg - config.gamma), axis=1)
    return pos_term + neg_term, d_pos.value, d_neg.value


def reference_cardinality_head(h: np.ndarray, params) -> np.ndarray:
    """Plain-numpy reference for ``cardinality.predict``: two ReLU layers,
    then ``cardinality.SCALE`` times the tanh form of the sigmoid, on (B, d)
    entropy vectors."""
    a = params.arrays
    z1 = np.maximum(0.0, h @ a["H1"] + a["H1b"])
    z2 = np.maximum(0.0, z1 @ a["H2"] + a["H2b"])
    z3 = z2 @ a["H3"] + a["H3b"]
    return cardinality.SCALE * 0.5 * (1.0 + np.tanh(0.5 * z3[..., 0]))


# --- malformed checkpoint headers ---------------------------------------------

def _with_config(header, **changes):
    return {**header, "config": {**header["config"], **changes}}


# id -> (new header from the saved one, bytes declared beyond the new header);
# a header given as bytes is written as is
MALFORMED_HEADERS = {
    "unknown-config-key": (lambda h: _with_config(h, beta=1), 0),
    "no-config": (lambda h: {"extra": h["extra"]}, 0),
    "config-not-object": (lambda h: {**h, "config": [16]}, 0),
    "d-string": (lambda h: _with_config(h, d="16"), 0),
    "d-float": (lambda h: _with_config(h, d=16.0), 0),
    "h-bool": (lambda h: _with_config(h, h=True), 0),
    "entities-missing": (lambda h: {**h, "config": {
        k: v for k, v in h["config"].items() if k != "num_entities"}}, 0),
    "entities-huge": (lambda h: _with_config(h, num_entities=2 ** 62), 0),
    "removed-config-key": (lambda h: _with_config(h, alpha=-10.0), 0),  # a version-1 field
    "removed-attention-key": (lambda h: _with_config(h, attention=True), 0),  # a version-2 field
    "extra-not-object": (lambda h: {**h, "extra": [1]}, 0),
    "header-not-object": (lambda h: [h], 0),
    "header-not-json": (lambda h: b"{", 0),
    "header-not-utf8": (lambda h: b"\xff\xfe", 0),
    "header-too-deep": (lambda h: b"[" * 100_000, 0),
    "length-past-payload": (lambda h: h, 1 << 20),
}


def write_malformed_checkpoint(source, path, case: str) -> str:
    """Copy of the checkpoint ``source`` with header case ``case`` of
    ``MALFORMED_HEADERS`` and a valid sha256 trailer; returns its path."""
    edit, beyond = MALFORMED_HEADERS[case]
    blob = source.read_bytes()
    (length,) = struct.unpack_from("<I", blob, 8)
    header = edit(json.loads(blob[12:12 + length]))
    raw = header if isinstance(header, bytes) else json.dumps(header).encode()
    payload = blob[:8] + struct.pack("<I", len(raw) + beyond) + raw + blob[12 + length:-32]
    path.write_bytes(payload + hashlib.sha256(payload).digest())
    return str(path)


def write_checkpoint_version(source, path, version: int) -> str:
    """Copy of the checkpoint ``source`` that declares format ``version``,
    with a valid sha256 trailer; returns its path."""
    blob = source.read_bytes()
    payload = blob[:4] + struct.pack("<I", version) + blob[8:-32]
    path.write_bytes(payload + hashlib.sha256(payload).digest())
    return str(path)


# --- ranking, one target at a time -------------------------------------------

def reference_rank(scores, filter_ids, target: int) -> int:
    """Filtered rank of one target, entity by entity in Python floats: 1 +
    the number of entities other than the target and outside ``filter_ids``
    whose score is at least the target's (ties count against the target)."""
    scores = np.asarray(scores, dtype=np.float64).tolist()
    filtered = {int(e) for e in filter_ids}
    mine = scores[target]
    return 1 + sum(1 for entity, score in enumerate(scores)
                   if entity != target and entity not in filtered and score >= mine)


# --- the logic, one slot at a time -------------------------------------------

def reference_negate(x, mode: str = "bounds") -> np.ndarray:
    """Negation of one flat slot vector: [l, u] -> [1 - u, 1 - l] per
    dimension in bounds mode, t -> 1 - t per slot in point mode."""
    x = [float(v) for v in x]
    if mode == "point":
        return np.array([1.0 - t for t in x])
    d = len(x) // 2
    return np.array([1.0 - u for u in x[d:]] + [1.0 - lo for lo in x[:d]])


def reference_conjoin(kind: str, inputs, weights) -> np.ndarray:
    """Weighted conjunction of k flat slot vectors in Python floats, slot by
    slot. Written from the formulas, not from ``logic.conjoin_slots``:

    - luk: max(0, 1 - sum_j w_j (1 - t_j));
    - prod: prod_j t_j^w_j;
    - min, Gödel: 1 - max_j w_j (1 - t_j)."""
    out = []
    for slot in range(len(inputs[0])):
        ts = [float(x[slot]) for x in inputs]
        ws = [float(w[slot]) for w in weights]
        if kind == "luk":
            value = max(0.0, 1.0 - sum(w * (1.0 - t) for t, w in zip(ts, ws)))
        elif kind == "prod":
            value = math.prod(t ** w for t, w in zip(ts, ws))
        elif kind == "min":
            value = 1.0 - max(w * (1.0 - t) for t, w in zip(ts, ws))
        else:
            raise ValueError(kind)
        out.append(value)
    return np.array(out)


# --- the row-gradient merge as it was before the dense table ----------------

class ReferenceMergeRowGrads:
    """``training._merge_row_grads`` by concatenation. Each call keeps the
    touches it is given for its table, then writes over that table the merge
    of every touch the table has had so far: one ``np.add.at`` of all their
    rows, concatenated, into zeros. After a step's last task the table holds
    the concatenating merge of all the step's touches, whatever it held
    between tasks."""

    def __init__(self):
        self._seen: dict[int, tuple[np.ndarray, list]] = {}

    def __call__(self, touches, table: np.ndarray, touched: np.ndarray) -> None:
        owner, kept = self._seen.setdefault(id(table), (table, []))
        assert owner is table  # kept tables stay alive, so ids are not reused
        kept.extend(touches)
        if not kept:
            return
        ids = np.concatenate([ids for ids, _ in kept])
        table[:] = 0.0
        np.add.at(table, ids, np.concatenate([grad for _, grad in kept], axis=0))
        touched[ids] = True


# --- a step's data path as it was before the whole-array draws ----------------
# Kept as the reference for ``training._split_picks`` and
# ``training._build_tasks``: the picks are grouped one at a time, and each
# query takes one scalar draw for its positive and one ``sample_negatives``
# call for its negatives.

def reference_split_picks(picks, order, starts) -> dict[str, list[int]]:
    offsets = [(structure, i) for structure, begin, end in zip(order, starts, starts[1:])
               for i in range(end - begin)]
    per_structure: dict[str, list[int]] = {}
    for pick in picks:
        structure, local = offsets[pick]
        per_structure.setdefault(structure, []).append(local)
    return per_structure


def reference_build_tasks(groups, per_structure, config, num_entities, rng) -> list[tuple]:
    tasks = []
    for structure in algebra.STRUCTURE_NAMES:
        locals_ = per_structure.get(structure)
        if not locals_:
            continue
        group = groups[structure]
        pos = np.array([
            group.answers[i][int(rng.integers(len(group.answers[i])))]
            for i in locals_
        ], dtype=np.int64)
        neg = np.stack([
            training.sample_negatives(group.answers[i], config.negatives, num_entities,
                                      rng, config.filter_negatives)
            for i in locals_
        ])
        tasks.append((group, np.asarray(locals_, dtype=np.int64), pos, neg))
    return tasks


# --- the set oracle and the sampler as they were before numpy -----------------
# Kept verbatim, apart from names, counters and the source of its random
# numbers, as the independent reference for the plan walk of
# ``oracle._walk_batch``, the batched ``oracle.eval_plan`` and the CSR tables
# on ``kg.AdjacencyIndex``: it reads the triples through its own dict of
# (head, relation) -> tails (``reference_forward``), walks the template's
# atoms, not the plan, in an order worked out again on every attempt, each
# attempt walks and is answered alone, and plans are evaluated per instance
# by recursion over Python sets with a cache. Its random numbers are the
# sampler's: one (rows, ``WALK_BATCH``) uniform matrix per ``WALK_BATCH``
# attempts, column i for attempt i, each choice among n options taking
# ``int(u * n)`` of the next number in its column.

def reference_forward(graph, splits=kg.SPLITS) -> dict[tuple[int, int], tuple[int, ...]]:
    """(head, relation) -> ascending tails of the edges in ``splits``."""
    forward: dict[tuple[int, int], list[int]] = {}
    for (h, r, t), split in sorted(graph.triples.items()):
        if split in splits:
            forward.setdefault((h, r), []).append(t)
    return {pair: tuple(tails) for pair, tails in forward.items()}


def reference_follow(relation: int, inputs, forward) -> set[int]:
    """Union of tails over all input entities: the maximal Skolem assignment."""
    out: set[int] = set()
    for head in inputs:
        out.update(forward.get((head, relation), ()))
    return out


def reference_eval_node(plan, node_id: int, anchors, relations, forward,
                        cache: dict[int, set[int]]) -> set[int]:
    """Evaluate one node's set; a conjunction subtracts the sets of the inputs
    it flags as negated."""
    if node_id in cache:
        return cache[node_id]
    node = plan.nodes[node_id]
    if isinstance(node, algebra.Anchor):
        result = {anchors[node.slot]}
    elif isinstance(node, algebra.Relate):
        base = reference_eval_node(plan, node.input, anchors, relations, forward, cache)
        result = reference_follow(relations[node.slot], base, forward)
    elif isinstance(node, algebra.Conjoin):
        result = None
        negated = []
        for i in node.inputs:
            if i in node.negated:
                negated.append(i)
                continue
            part = reference_eval_node(plan, i, anchors, relations, forward, cache)
            result = set(part) if result is None else result & part
        for i in negated:
            result -= reference_eval_node(plan, i, anchors, relations, forward, cache)
    elif isinstance(node, algebra.Disjoin):
        result = set()
        for i in node.inputs:
            result |= reference_eval_node(plan, i, anchors, relations, forward, cache)
    else:
        raise DataError(f"unevaluable plan node {type(node).__name__}")
    cache[node_id] = result
    return result


def reference_eval_plan(plan, anchors, relations, forward) -> set[int]:
    """The answer set of one instance's bindings over ``reference_forward``'s dict."""
    return reference_eval_node(plan, len(plan.nodes) - 1, anchors, relations, forward, {})


def reference_incoming_table(forward) -> dict[int, list[tuple[int, int]]]:
    incoming: dict[int, list[tuple[int, int]]] = {}
    for (h, r), tails in sorted(forward.items()):
        for t in tails:
            incoming.setdefault(t, []).append((h, r))
    return incoming


def reference_uniforms(rng, rows: int):
    """Per attempt, an iterator over its column of the sampler's uniforms."""
    while True:
        block = rng.random((rows, oracle.WALK_BATCH))
        for column in block.T.tolist():
            yield iter(column)


def reference_walk_instance(template, answer: int, incoming, draws) -> algebra.QueryInstance | None:
    """Instantiate a template by walking its atoms backwards from ``answer``,
    working out the atom order as it goes; ``draws`` yields the attempt's
    uniforms."""
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
            head, rel = options[int(next(draws) * len(options))]
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
    return algebra.QueryInstance(template.name, anchors, rels)


# The splits each mode answers on, and those its easy answers come from: the
# nested graphs of Query2Box and BetaE, written out apart from the oracle's
# table. A mode whose two sets differ keeps only queries with a hard answer.
REFERENCE_MODES = {
    "train": (("train",), ("train",)),
    "generalization": (("train", "valid", "test"), ("train",)),
    "valid": (("train", "valid"), ("train",)),
    "test": (("train", "valid", "test"), ("train", "valid")),
}


def reference_sample_queries(structure: str, count: int, seed: int, mode: str,
                             answer_forward, easy_forward) -> tuple[list, int, int]:
    """The samples of ``oracle.sample_queries`` in ``mode``, walking and
    answering on ``answer_forward`` and taking easy answers from
    ``easy_forward`` (the ``reference_forward`` dicts of the mode's two split
    sets), with the number of walk attempts and of plan evaluations it took."""
    template = algebra.TEMPLATES[structure]
    plan = algebra.structure_plan(structure)
    holds_out = REFERENCE_MODES[mode][0] != REFERENCE_MODES[mode][1]
    incoming = reference_incoming_table(answer_forward)
    tails = sorted(incoming)
    rng = np.random.default_rng([seed, algebra.STRUCTURE_NAMES.index(structure)])
    uniforms = reference_uniforms(rng, 1 + len(template.atoms))
    samples: list[oracle.QuerySample] = []
    seen: set[algebra.QueryInstance] = set()
    attempts = evals = 0
    while len(samples) < count and attempts < oracle.RETRY_FACTOR * count:
        attempts += 1
        draws = next(uniforms)
        answer = tails[int(next(draws) * len(tails))]
        instance = reference_walk_instance(template, answer, incoming, draws)
        if instance is None or instance in seen:
            continue
        bindings = instance.anchors, instance.relations
        evals += 1
        full = reference_eval_plan(plan, *bindings, answer_forward)
        if not full:
            continue
        if holds_out:
            evals += 1
            easy = reference_eval_plan(plan, *bindings, easy_forward) & full
        else:
            easy = full
        hard = full - easy
        if holds_out and not hard:
            continue
        seen.add(instance)
        samples.append(oracle.QuerySample(instance, tuple(sorted(easy)), tuple(sorted(hard))))
    return samples, attempts, evals


def reference_sample_dataset(graph, structures, per_structure: int, seed: int, mode: str,
                             negation_frac: float = 1.0) -> tuple[oracle.QueryDataset, dict, dict]:
    """``oracle.sample_dataset`` through the reference sampler, with the walk
    attempts and plan evaluations per structure."""
    answer_forward, easy_forward = (reference_forward(graph, splits)
                                    for splits in REFERENCE_MODES[mode])
    samples: list[oracle.QuerySample] = []
    counts, attempts, evals = {}, {}, {}
    for structure in structures:
        count = per_structure
        if structure in algebra.NEGATION_STRUCTURES:
            count = max(1, int(round(per_structure * negation_frac)))
        got, attempts[structure], evals[structure] = reference_sample_queries(
            structure, count, seed, mode, answer_forward, easy_forward)
        counts[structure] = len(got)
        samples.extend(got)
    metadata = {"graph_hash": graph.content_hash(), "mode": mode, "seed": seed,
                "counts": counts, "attempts": attempts}
    return oracle.QueryDataset(samples, metadata), attempts, evals
