import numpy as np
import pytest

from skqe import algebra, autodiff as ad, kg


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
