import math

import numpy as np
import pytest

from skqe import algebra, autodiff as ad, kg, oracle
from skqe.errors import DataError


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


def composed_distance(ctx, ids: np.ndarray, branches):
    """Per-row reference for ``ForwardContext.entity_distance`` built from
    composed tape ops on the realized entity table: gather every drawn row as
    a slot-space leaf (one touch per draw) -> sub -> abs -> mean over slots
    -> minimum over branches."""
    ids = np.asarray(ids, dtype=np.int64)
    b, width = ids.shape[0], 2 * ctx.config.d
    emb = ad.reshape(ctx.entity_slots(ids.reshape(-1)), (b, -1, width))
    return _nearest_branch(emb, branches, ids.shape)


def _gather(table, index: np.ndarray):
    """Rows ``table[index]`` as a tape op whose backward scatters with ``np.add.at``."""
    def backward(g):
        grad = np.zeros_like(table.value)
        np.add.at(grad, index, g)
        table._accumulate(grad)

    return ad.Tensor(table.tape, table.value[index], backward)


def composed_gather_distance(ctx, ids: np.ndarray, branches):
    """Per-entity reference for ``ForwardContext.entity_distance`` built from
    composed tape ops on the realized entity table: gather the sorted
    distinct rows once as a slot-space leaf, gather them per draw, then sub
    -> abs -> mean over slots -> minimum over branches."""
    ids = np.asarray(ids, dtype=np.int64)
    unique, inverse = np.unique(ids.reshape(-1), return_inverse=True)
    b, width = ids.shape[0], 2 * ctx.config.d
    emb = ad.reshape(_gather(ctx.entity_slots(unique), inverse), (b, -1, width))
    return _nearest_branch(emb, branches, ids.shape)


def _nearest_branch(emb, branches, shape):
    """Mean L1 distance of (B, K, 2d) slot rows to the nearest (B, 2d) branch."""
    b, width = emb.shape[0], emb.shape[-1]
    best = None
    for q in branches:
        dist = ad.mean_axis(ad.absolute(emb - ad.reshape(q, (b, 1, width))), axis=2)
        best = dist if best is None else ad.minimum(best, dist)
    return ad.reshape(best, shape)


def composed_group_forward(ctx, group, rows, pos_ids, neg_ids, config):
    """``training._group_forward`` with ``composed_distance`` in place of the
    fused distance; the reference for the training trajectory. Its per-draw
    slot-space touches are merged by ``training._step`` before the step's one
    realization pullback."""
    branches = ctx.embed_instances(group.structure, group.anchors[rows],
                                   group.relations[rows], config.union)
    d_pos = composed_distance(ctx, pos_ids, branches)
    d_neg = composed_distance(ctx, neg_ids, branches)
    pos_term = -ad.log_sigmoid(config.gamma - d_pos)
    neg_term = -ad.mean_axis(ad.log_sigmoid(d_neg - config.gamma), axis=1)
    return pos_term + neg_term, d_pos.value, d_neg.value


def reference_cardinality_head(h: np.ndarray, params) -> np.ndarray:
    """Plain-numpy reference for ``ForwardContext.cardinality``: two ReLU
    layers, then rho times the tanh form of the sigmoid, on (B, d) entropy
    vectors."""
    a = params.arrays
    z1 = np.maximum(0.0, h @ a["H1"] + a["H1b"])
    z2 = np.maximum(0.0, z1 @ a["H2"] + a["H2b"])
    z3 = z2 @ a["H3"] + a["H3b"]
    return params.config.rho * 0.5 * (1.0 + np.tanh(0.5 * z3[..., 0]))


# --- the logic, one slot at a time -------------------------------------------

def reference_negate(x, mode: str = "bounds") -> np.ndarray:
    """Negation of one flat slot vector: [l, u] -> [1 - u, 1 - l] per
    dimension in bounds mode, t -> 1 - t per slot in point mode."""
    x = [float(v) for v in x]
    if mode == "point":
        return np.array([1.0 - t for t in x])
    d = len(x) // 2
    return np.array([1.0 - u for u in x[d:]] + [1.0 - lo for lo in x[:d]])


def reference_conjoin(kind: str, inputs, weights, alpha: float,
                      mode: str = "bounds") -> tuple[np.ndarray, int]:
    """Weighted conjunction of k flat slot vectors in Python floats, slot by
    slot; returns (value, repaired dimensions). Written from the formulas,
    not from ``logic.conjoin_slots``:

    - luk: max(0, 1 - sum_j w_j (1 - t_j));
    - prod: prod_j t_j^w_j;
    - min, the smooth minimum: sum_j t_j w_j e^(alpha t_j) / sum_j w_j e^(alpha t_j).

    In bounds mode each dimension whose conjoined lower exceeds its upper
    takes their midpoint for both; point mode repairs nothing."""
    out = []
    for slot in range(len(inputs[0])):
        ts = [float(x[slot]) for x in inputs]
        ws = [float(w[slot]) for w in weights]
        if kind == "luk":
            value = max(0.0, 1.0 - sum(w * (1.0 - t) for t, w in zip(ts, ws)))
        elif kind == "prod":
            value = math.prod(t ** w for t, w in zip(ts, ws))
        elif kind == "min":
            value = (sum(t * w * math.exp(alpha * t) for t, w in zip(ts, ws))
                     / sum(w * math.exp(alpha * t) for t, w in zip(ts, ws)))
        else:
            raise ValueError(kind)
        out.append(value)
    repairs = 0
    if mode == "bounds":
        d = len(out) // 2
        for i in range(d):
            if out[i] > out[d + i]:
                out[i] = out[d + i] = 0.5 * (out[i] + out[d + i])
                repairs += 1
    return np.array(out), repairs


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


# --- the sampler as it was before the static walk order ------------------------
# Kept verbatim, apart from names, counters and the source of its random
# numbers, as the independent reference for ``oracle.walk_order``, the batched
# walks of ``oracle._walk_batch``, the one-pass ``oracle.eval_plan`` and the
# walk table on ``kg.AdjacencyIndex``: the walk order is worked out again on
# every attempt, each attempt walks alone over a dict table rebuilt for every
# structure, and plans are evaluated by recursion with a cache. Its random
# numbers are the sampler's: one (rows, ``WALK_BATCH``) uniform matrix per
# ``WALK_BATCH`` attempts, column i for attempt i, each choice among n options
# taking ``int(u * n)`` of the next number in its column.

def reference_eval_node(plan, node_id: int, anchors, relations, index,
                        cache: dict[int, tuple[set[int], bool]]) -> tuple[set[int], bool]:
    """Evaluate to (set, complemented); complements stay lazy inside conjunctions."""
    if node_id in cache:
        return cache[node_id]
    node = plan.nodes[node_id]
    if isinstance(node, algebra.Anchor):
        result = ({anchors[node.slot]}, False)
    elif isinstance(node, algebra.Relate):
        base, complemented = reference_eval_node(plan, node.input, anchors, relations, index, cache)
        if complemented:
            base = set(range(index.num_entities)) - base
        result = (oracle.follow(relations[node.slot], base, index), False)
    elif isinstance(node, algebra.Negate):
        base, complemented = reference_eval_node(plan, node.input, anchors, relations, index, cache)
        result = (base, not complemented)
    elif isinstance(node, algebra.Conjoin):
        parts = [reference_eval_node(plan, i, anchors, relations, index, cache)
                 for i in node.inputs]
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
    elif isinstance(node, algebra.Disjoin):
        parts = [reference_eval_node(plan, i, anchors, relations, index, cache)
                 for i in node.inputs]
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


def reference_eval_plan(plan, anchors, relations, index) -> set[int]:
    answers, complemented = reference_eval_node(plan, plan.sink, anchors, relations, index, {})
    if complemented:
        return set(range(index.num_entities)) - answers
    return answers


def reference_incoming_table(index) -> dict[int, list[tuple[int, int]]]:
    incoming: dict[int, list[tuple[int, int]]] = {}
    for (h, r), tails in sorted(index.forward.items()):
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


def reference_sample_queries(structure: str, count: int, seed: int, mode: str,
                             full_index, train_index) -> tuple[list, int, int]:
    """The samples of ``oracle.sample_queries``, with the number of walk
    attempts and of plan evaluations it took."""
    template = algebra.TEMPLATES[structure]
    plan = algebra.structure_plan(structure)
    walk_index = train_index if mode == "train" else full_index
    incoming = reference_incoming_table(walk_index)
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
        if mode == "train":
            evals += 1
            easy = reference_eval_plan(plan, *bindings, train_index)
            hard: set[int] = set()
            if not easy:
                continue
        elif mode == "entailment":
            evals += 1
            easy = reference_eval_plan(plan, *bindings, full_index)
            hard = set()
            if not easy:
                continue
        else:
            evals += 1
            full = reference_eval_plan(plan, *bindings, full_index)
            if not full:
                continue
            evals += 1
            easy = reference_eval_plan(plan, *bindings, train_index) & full
            hard = full - easy
            if not hard:
                continue
        seen.add(instance)
        samples.append(oracle.QuerySample(instance, tuple(sorted(easy)), tuple(sorted(hard))))
    return samples, attempts, evals


def reference_sample_dataset(graph, structures, per_structure: int, seed: int, mode: str,
                             negation_frac: float = 1.0) -> tuple[oracle.QueryDataset, dict, dict]:
    """``oracle.sample_dataset`` through the reference sampler, with the walk
    attempts and plan evaluations per structure."""
    full_index = kg.build_index(graph, kg.SPLITS)
    train_index = kg.build_index(graph, ("train",))
    samples: list[oracle.QuerySample] = []
    counts, attempts, evals = {}, {}, {}
    for structure in structures:
        count = per_structure
        if structure in algebra.NEGATION_STRUCTURES:
            count = max(1, int(round(per_structure * negation_frac)))
        got, attempts[structure], evals[structure] = reference_sample_queries(
            structure, count, seed, mode, full_index, train_index)
        counts[structure] = len(got)
        samples.extend(got)
    metadata = {"graph_hash": graph.content_hash(), "mode": mode, "seed": seed,
                "counts": counts, "attempts": attempts}
    return oracle.QueryDataset(samples, metadata), attempts, evals
