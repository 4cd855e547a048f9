"""Parameter store and the model's one forward pass.

``ForwardContext`` embeds queries. A query is embedded by one forward pass
over the nodes of its structure's cached plan (or of each DNF branch,
``algebra.plan_branches``) under a batch of (anchors, relations) bindings, in
training, evaluation and ``skqe answer`` alike; the last node's value is the
embedding. A conjunction negates the inputs its node flags
(``algebra.Conjoin.negated``), then weighs every input per dimension by
``ForwardContext.attention_weights``. Embeddings are flat 2d truth-slot
vectors. In bounds mode the first d slots are interval lowers and the last d
are uppers, kept ordered by construction (realization orders them, and every
logic operator keeps them so); in point mode all 2d slots are independent
point truths. The forward pass calls the slot operators of ``logic`` and the
array-generic ``autodiff`` primitives, so training and inference share one
code path: in training the parameters enter a tape as leaves, and in inference
they are the plain arrays and nothing is recorded.

Realization (sigmoid, then ordered bounds) is written once in numpy
(``_realize_parts`` and its pullback ``_realize_backward``). Every context
gathers its entity rows from one realized (N, 2d) entity table: the one it is
given, or ``realize_all_entities`` on its first gather. Realization works
element by element, so a gathered row equals the realization of that
parameter row. Evaluation and ``skqe answer`` realize the table once and pass
it to each context and to scoring. Training realizes it once per optimizer
step and passes it to every task's context, which gathers anchors, positives
and negatives from it as slot-space leaves and records one touch (ids, leaf)
per gather. The step folds each task's slot gradients, as soon as that task
finishes and in touch order, into one zeroed (N, 2d) table
(``training._merge_row_grads``) and pulls the touched rows back through the
realization once, after the last task. ``ForwardContext.realize`` (the Skolem
output's realization) and the fused training distance
``ForwardContext.entity_distance`` are tape primitives with a hand-derived
backward; tests pin them to the composed tape ops. The distance gathers each
distinct entity of its ids once, found with a presence mask over the entity
table rather than a sort. Its working set is bounded: it gathers its
(B, K, 2d) draws in row tiles of at most ``DISTANCE_TILE_BYTES``, and its
backward sums them per entity ``SUM_ROWS_COLUMNS`` columns at a time
(``sum_rows``). Only the sign of each draw's difference, which the backward
needs, is kept whole.
"""

from __future__ import annotations

import hashlib
import json
import math
import struct
from dataclasses import dataclass, field, asdict
from pathlib import Path

import numpy as np

from . import algebra, autodiff as ad, logic
from .algebra import QueryInstance
from .errors import DataError, NumericError
from .logic import TNORM_KINDS

MODES = ("bounds", "point")
Slots = ad.Tensor | np.ndarray  # a tape tensor in training, a plain array in inference

CHECKPOINT_MAGIC = b"SKQE"
# version 4 also stored the answer-size head's six H* arrays; version 3 meant
# the smooth minimum by kind min; version 2 also stored attention; version 1
# also G2b, alpha and rho
CHECKPOINT_VERSION = 5

DISTANCE_TILE_BYTES = 1 << 20  # budget of one (rows, K, 2d) tile of entity_distance's draws
SUM_ROWS_COLUMNS = 16  # columns per np.bincount in sum_rows


@dataclass(frozen=True)
class ModelConfig:
    num_entities: int
    num_relations: int
    d: int = 32
    h: int = 128
    mode: str = "bounds"
    kind: str = "luk"

    def __post_init__(self):
        sizes = (self.num_entities, self.num_relations, self.d, self.h)
        if not all(isinstance(v, (int, np.integer)) and not isinstance(v, bool) for v in sizes):
            raise DataError(f"entity and relation counts, d and h must be integers, got {sizes}")
        if self.mode not in MODES:
            raise DataError(f"unknown embedding mode {self.mode!r}")
        if self.kind not in TNORM_KINDS:
            raise DataError(f"unknown t-norm kind {self.kind!r}")
        if self.d < 1:
            raise DataError(f"embedding dimension d must be at least 1, got {self.d}")
        if self.num_entities < 1 or self.num_relations < 1:
            raise DataError("model needs at least one entity and one relation")
        if self.h < 1:
            raise DataError(f"hidden width h must be at least 1, got {self.h}")


def param_shapes(config: ModelConfig) -> list[tuple[str, tuple[int, ...]]]:
    """Checkpoint field order; entity rows are free pre-activation parameters."""
    d, h = config.d, config.h
    return [
        ("entity", (config.num_entities, 2 * d)),
        ("relation", (config.num_relations, d)),
        ("F1", (3 * d, h)),
        ("F1b", (h,)),
        ("F2", (h, h)),
        ("F2b", (h,)),
        ("F3", (h, 2 * d)),
        ("F3b", (2 * d,)),
        ("G1", (2 * d, 2 * d)),
        ("G1b", (2 * d,)),
        ("G2", (2 * d, d)),
    ]


@dataclass
class ModelParams:
    config: ModelConfig
    arrays: dict[str, np.ndarray]
    extra: dict = field(default_factory=dict)

    @classmethod
    def initialize(cls, config: ModelConfig, seed: int) -> "ModelParams":
        rng = np.random.default_rng([seed, 0])
        arrays: dict[str, np.ndarray] = {}
        for name, shape in param_shapes(config):
            if name.endswith("b"):
                arrays[name] = np.zeros(shape)
            elif name in ("entity", "relation"):
                arrays[name] = rng.normal(0.0, 1.0, shape)
            else:
                fan_in = shape[0]
                arrays[name] = rng.normal(0.0, np.sqrt(2.0 / fan_in), shape)
        return cls(config, arrays)

    def copy(self) -> "ModelParams":
        return ModelParams(
            self.config,
            {k: v.copy() for k, v in self.arrays.items()},
            dict(self.extra),
        )

    def save(self, path) -> None:
        header = {
            "config": asdict(self.config),
            "extra": self.extra,
        }
        header_bytes = json.dumps(header, sort_keys=True).encode("utf-8")
        body = bytearray()
        body += CHECKPOINT_MAGIC
        body += struct.pack("<I", CHECKPOINT_VERSION)
        body += struct.pack("<I", len(header_bytes))
        body += header_bytes
        for name, shape in param_shapes(self.config):
            array = self.arrays[name]
            if array.shape != shape:
                raise DataError(f"parameter {name} has shape {array.shape}, expected {shape}")
            body += array.astype("<f8").tobytes()
        body += hashlib.sha256(bytes(body)).digest()
        Path(path).parent.mkdir(parents=True, exist_ok=True)
        with open(path, "wb") as handle:
            handle.write(bytes(body))

    @classmethod
    def load(cls, path) -> "ModelParams":
        with open(path, "rb") as handle:
            blob = handle.read()
        if len(blob) < 44 or blob[:4] != CHECKPOINT_MAGIC:
            raise DataError(f"{path}: not a model checkpoint (bad magic)")
        payload, trailer = blob[:-32], blob[-32:]
        if hashlib.sha256(payload).digest() != trailer:
            raise DataError(f"{path}: checkpoint content hash mismatch (corrupt file)")
        (version,) = struct.unpack_from("<I", blob, 4)
        if version != CHECKPOINT_VERSION:
            raise DataError(f"{path}: unsupported checkpoint version {version}")
        (header_len,) = struct.unpack_from("<I", blob, 8)
        offset = 12 + header_len
        if offset > len(payload):
            raise DataError(f"{path}: checkpoint header runs past the end of the file")
        try:
            header = json.loads(blob[12:offset].decode("utf-8"))
        except (ValueError, RecursionError):  # bad UTF-8 or JSON, or nested too deep
            raise DataError(f"{path}: checkpoint header is not valid JSON") from None
        if not (isinstance(header, dict) and isinstance(header.get("config"), dict)
                and isinstance(header.get("extra", {}), dict)):
            raise DataError(f"{path}: checkpoint header must be an object whose "
                            f"'config' and 'extra' are objects")
        try:  # TypeError: a key ModelConfig lacks, or a required one missing
            config = ModelConfig(**header["config"])
        except (TypeError, DataError) as exc:
            raise DataError(f"{path}: bad checkpoint config ({exc})") from None
        arrays = {}
        for name, shape in param_shapes(config):
            count = math.prod(shape)
            end = offset + 8 * count
            if end > len(payload):
                raise DataError(f"{path}: truncated checkpoint")
            arrays[name] = np.frombuffer(payload[offset:end], dtype="<f8").reshape(shape).copy()
            offset = end
        if offset != len(payload):
            raise DataError(f"{path}: trailing bytes in checkpoint")
        bad = [name for name, array in arrays.items() if not np.all(np.isfinite(array))]
        if bad:
            raise DataError(f"{path}: non-finite values in parameters {bad}")
        return cls(config, arrays, header.get("extra", {}))


@dataclass
class QueryEmbedding:
    """One slot vector per DNF branch; a single branch for union-free plans."""

    branches: tuple[np.ndarray, ...]


def _realize_parts(rows: np.ndarray, mode: str) -> tuple[np.ndarray, np.ndarray]:
    """Sigmoid s of pre-activation rows and the slot vector built from it: s
    in point mode; lower = s1 and upper = s1 + s2 (1 - s1) in bounds mode."""
    sig = 0.5 * (1.0 + np.tanh(0.5 * rows))
    if mode == "point":
        return sig, sig
    d = rows.shape[-1] // 2
    lower = sig[..., :d]
    upper = lower + sig[..., d:] * (1.0 - lower)
    return sig, np.concatenate([lower, upper], axis=-1)


def _realize_backward(g: np.ndarray, sig: np.ndarray, mode: str) -> np.ndarray:
    """Gradient at the pre-activations from the gradient at the slot vector, in
    the composed tape ops' arithmetic order, so it is bit-identical to them."""
    if mode == "bounds":
        d = sig.shape[-1] // 2
        g_lower, g_upper = g[..., :d], g[..., d:]
        g = np.concatenate([(g_lower + g_upper) - g_upper * sig[..., d:],
                            g_upper * (1.0 - sig[..., :d])], axis=-1)
    return g * sig * (1.0 - sig)


def sum_rows(inverse: np.ndarray, rows: np.ndarray, count: int) -> np.ndarray:
    """(count, width) sums of ``rows`` grouped by ``inverse``, each group's rows
    added in their order. One flat ``np.bincount`` per chunk of at most
    ``SUM_ROWS_COLUMNS`` columns, over ``inverse * chunk + column``, adds in
    ``np.add.at``'s order; columns are independent, so the sums match it bit
    for bit (``np.add.reduceat`` regroups them), while the bins and weights
    cover one chunk, not the whole block. ``entity_distance`` sums its draws
    per distinct entity with it; the step merges its touches, whose ids are
    already grouped per touch, in a dense table instead."""
    width = rows.shape[-1]
    out = np.empty((count, width))
    bins = None
    for start in range(0, width, SUM_ROWS_COLUMNS):
        chunk = rows[:, start:start + SUM_ROWS_COLUMNS]
        cols = chunk.shape[1]
        if bins is None or bins.size != inverse.size * cols:
            bins = (inverse[:, None] * cols + np.arange(cols)).reshape(-1)
        out[:, start:start + cols] = np.bincount(
            bins, weights=chunk.reshape(-1), minlength=count * cols).reshape(count, cols)
    return out


def realize_all_entities(params: ModelParams) -> np.ndarray:
    return _realize_parts(params.arrays["entity"], params.config.mode)[1]


def entity_embedding(entity_id: int, params: ModelParams) -> np.ndarray:
    """Realized slot vector of one entity; valid bounds in bounds mode."""
    if not (0 <= entity_id < params.config.num_entities):
        raise DataError(f"entity id {entity_id} out of range")
    return _realize_parts(params.arrays["entity"][entity_id], params.config.mode)[1]


class ForwardContext:
    """Per-tape forward pass over the model parameters.

    In training mode every parameter enters the tape as a leaf and touched
    embedding rows are recorded for sparse updates. In inference mode the
    parameters are the plain arrays, so every operator returns a plain array
    and the tape stays empty. Entity rows come from one realized entity table
    in both modes. The context owns its tape: dropping the context frees the
    tape and all its arrays.
    """

    repair_count = 0  # read by perfbench around ``conjoin``; no t-norm crosses bounds

    def __init__(self, params: ModelParams, train: bool = False,
                 entities: np.ndarray | None = None):
        """``entities`` is the realized (N, 2d) entity table
        (``realize_all_entities``) that every entity gather reads; a context
        built without one realizes it on its first gather."""
        self.params = params
        self.config = params.config
        self.tape = ad.Tape()
        self.train = train
        self.entity_touches: list[tuple[np.ndarray, ad.Tensor]] = []  # slot-space leaves
        self.relation_touches: list[tuple[np.ndarray, ad.Tensor]] = []
        self._dense: dict[str, Slots] = {}
        self._entities = entities

    def _wrap(self, value: np.ndarray) -> Slots:
        return self.tape.leaf(value) if self.train else value

    def dense(self, name: str) -> Slots:
        if name not in self._dense:
            self._dense[name] = self._wrap(self.params.arrays[name])
        return self._dense[name]

    def entity_slots(self, ids: np.ndarray) -> Slots:
        """Realized slot vectors of entity rows, gathered from the realized
        entity table in both modes. Inference returns the rows; training wraps
        them in one slot-space leaf and records the touch."""
        ids = np.asarray(ids, dtype=np.int64)
        if self._entities is None:
            self._entities = realize_all_entities(self.params)
        slots = self._wrap(self._entities[ids])
        if self.train:
            self.entity_touches.append((ids, slots))
        return slots

    def relation_rows(self, ids: np.ndarray) -> Slots:
        ids = np.asarray(ids, dtype=np.int64)
        rows = self._wrap(self.params.arrays["relation"][ids])
        if self.train:
            self.relation_touches.append((ids, rows))
        return rows

    def entity_distance(self, ids: np.ndarray, query: ad.Tensor) -> ad.Tensor:
        """L1 satisfiability distance D(q, e) of entities to a query.

        ``ids`` is (B,) or (B, K) and ``query`` a training query's one (B, 2d)
        branch; the value has the shape of ``ids``. One primitive for gather
        -> sub -> abs -> mean. It works per distinct entity: the sorted
        distinct ids, read off a presence mask over the entity table (their
        inverse from its running count, so no sort), gather one slot-space leaf
        from the realized entity table (one touch per call), and the backward
        sums each draw's slot gradient per entity in draw order (``sum_rows``).
        The forward gathers the draws a tile of rows at a time into one reused
        buffer of at most ``DISTANCE_TILE_BYTES`` (at least one row), and keeps
        only the sign of the (B, K, 2d) difference, so the backward does not
        form the difference again. Rows are independent, so the tiling does not
        change a bit. The realization pullback is left to the owner of the table.
        """
        ids = np.asarray(ids, dtype=np.int64)
        present = np.zeros(self.config.num_entities, dtype=bool)
        present[ids] = True
        unique = np.flatnonzero(present)
        index = np.cumsum(present)
        index -= 1
        rows = self.entity_slots(unique)
        b, n = ids.shape[0], rows.shape[-1]
        inverse = index[ids].reshape(b, -1)
        k = inverse.shape[1]
        sign = np.empty((b, k, n))
        dist = np.empty((b, k))
        tile = max(1, DISTANCE_TILE_BYTES // (k * n * rows.value.itemsize))
        drawn = np.empty((min(tile, b), k, n))
        for start in range(0, b, tile):
            stop = min(start + tile, b)
            block = drawn[:stop - start]
            # "clip" because "raise" gathers into a temporary and then copies to out
            np.take(rows.value, inverse[start:stop], axis=0, out=block, mode="clip")
            np.subtract(block, query.value[start:stop, None, :], out=block)
            np.sign(block, out=sign[start:stop])  # in place it runs several times slower
            np.mean(np.abs(block, out=block), axis=2, out=dist[start:stop])

        def backward(g):  # runs once, so it overwrites the sign buffer
            g_drawn = np.multiply((g.reshape(b, k) / n)[..., None], sign, out=sign)
            query._accumulate(-g_drawn.sum(axis=1))
            rows._accumulate(sum_rows(inverse.reshape(-1), g_drawn.reshape(-1, n),
                                      unique.size))

        return ad.Tensor(self.tape, dist.reshape(ids.shape), backward)

    # --- embedding-space operators -----------------------------------------

    def realize(self, pre: Slots) -> Slots:
        """Slot vectors from the Skolem MLP's last-layer pre-activations: one
        primitive over the numpy realization, or that realization itself when
        ``pre`` is an array."""
        sig, value = _realize_parts(ad.value_of(pre), self.config.mode)
        if not isinstance(pre, ad.Tensor):
            return value
        mode = self.config.mode

        def backward(g):
            pre._accumulate(_realize_backward(g, sig, mode))

        return ad.Tensor(pre.tape, value, backward)

    def skolem(self, rel_rows: Slots, x: Slots) -> Slots:
        z = ad.concat_last([rel_rows, x])
        h1 = ad.relu(ad.matmul(z, self.dense("F1")) + self.dense("F1b"))
        h2 = ad.relu(ad.matmul(h1, self.dense("F2")) + self.dense("F2b"))
        return self.realize(ad.matmul(h2, self.dense("F3")) + self.dense("F3b"))

    def attention_weights(self, xs: list[Slots]) -> list[Slots]:
        """Per-dimension weights in (0,1], max exactly 1 across inputs, for every conjoin.

        Equal to the softargmax score divided by its max over inputs; the
        exp(g - max g) form computes that without the division. The scores
        g = relu(x G1 + G1b) G2 have no output bias: a bias adds the same
        shift to every input's g, and the weights are invariant to a shift
        shared by all inputs.
        """
        gs = []
        for x in xs:
            hidden = ad.relu(ad.matmul(x, self.dense("G1")) + self.dense("G1b"))
            gs.append(ad.matmul(hidden, self.dense("G2")))
        peak = gs[0]
        for g in gs[1:]:
            peak = ad.maximum(peak, g)
        return [ad.exp(g - peak) for g in gs]

    def conjoin(self, xs: list[Slots]) -> Slots:
        tiled = [ad.concat_last([w, w]) for w in self.attention_weights(xs)]
        return logic.conjoin_slots(self.config.kind, xs, tiled)

    def disjoin(self, xs: list[Slots]) -> Slots:
        mode = self.config.mode
        return logic.negate_slots(self.conjoin([logic.negate_slots(x, mode) for x in xs]), mode)

    # --- query embedding -----------------------------------------------------

    def embed_instances(self, structure: str, anchors: np.ndarray, relations: np.ndarray,
                        union_mode: str = "dnf", collect: list | None = None) -> list[Slots]:
        """Embed a batch of same-structure queries; one (B, 2d) embedding per
        DNF branch, a tensor in training mode and an array in inference.

        Row i binds the plan's anchor and relation slots to ``anchors[i]`` and
        ``relations[i]``. Each branch plan is evaluated in one forward pass
        over its nodes, as ``oracle.eval_plan`` does: every input comes before
        its node, so a node's value is appended once its inputs are there,
        and the last value is the branch's embedding. Entity and relation
        rows are therefore gathered, and their touches recorded, in node
        order. A Conjoin negates its ``negated`` inputs as it conjoins them,
        so when ``collect`` is given, a (branch plan, values) pair is
        appended per branch, one value per plan node in node order and no
        negated value, so callers can inspect the intermediate embeddings.
        Inference raises NumericError on a non-finite query embedding, whose
        scores would be NaN.
        """
        anchors = np.atleast_2d(np.asarray(anchors, dtype=np.int64))
        relations = np.atleast_2d(np.asarray(relations, dtype=np.int64))
        outs = []
        for branch in algebra.plan_branches(structure, union_mode):
            values: list[Slots] = []
            for node in branch.nodes:
                if isinstance(node, algebra.Anchor):
                    out = self.entity_slots(anchors[:, node.slot])
                elif isinstance(node, algebra.Relate):
                    out = self.skolem(self.relation_rows(relations[:, node.slot]),
                                      values[node.input])
                elif isinstance(node, algebra.Conjoin):
                    out = self.conjoin([
                        logic.negate_slots(values[i], self.config.mode)
                        if i in node.negated else values[i] for i in node.inputs])
                else:  # Disjoin
                    out = self.disjoin([values[i] for i in node.inputs])
                values.append(out)
            outs.append(values[-1])
            if collect is not None:
                collect.append((branch, values))
        if not self.train and not all(np.all(np.isfinite(out)) for out in outs):
            raise NumericError(f"{structure}: non-finite query embedding")
        return outs


def embed_instance(instance: QueryInstance, params: ModelParams,
                   union_mode: str = "dnf") -> QueryEmbedding:
    """Embed one query; DNF mode returns one branch per union branch."""
    outs = ForwardContext(params).embed_instances(
        instance.structure, [instance.anchors], [instance.relations], union_mode)
    return QueryEmbedding(tuple(o[0] for o in outs))


def satisfiability(entities: np.ndarray, branches) -> np.ndarray:
    """Satisfiability 1 - D of (K, 2d) entity rows, D the mean L1 distance
    over the 2d slots, against each branch: one (2d,) query for every row or
    one (K, 2d) query row per entity row. DNF embeddings score as the best
    branch. The one exact scoring formula; ``np.add.reduce`` over the slots,
    divided by their count, gives the bytes of ``np.mean`` without its
    wrapper."""
    width = entities.shape[1]
    best = None
    for branch in branches:
        scores = 1.0 - np.add.reduce(np.abs(entities - branch), axis=1) / width
        best = scores if best is None else np.maximum(best, scores)
    return best


def score_entities(qe: QueryEmbedding, params: ModelParams,
                   entity_matrix: np.ndarray | None = None) -> np.ndarray:
    """Satisfiability 1 - D of every entity against the query embedding.

    DNF embeddings score as the best branch.
    """
    entities = realize_all_entities(params) if entity_matrix is None else entity_matrix
    return satisfiability(entities, qe.branches)
