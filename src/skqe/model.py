"""Parameter store and query-embedding forward semantics.

Embeddings are flat 2d truth-slot vectors. In bounds mode the first d slots
are interval lowers and the last d are uppers, kept ordered by construction;
in point mode all 2d slots are independent point truths. The forward pass
calls the slot operators of ``logic`` and the array-generic ``autodiff``
primitives, so training and inference share one code path: in training the
parameters enter a tape as leaves, and in inference they are the plain
parameter arrays and the forward pass records nothing. Realization (sigmoid,
then ordered bounds) is written once in numpy (``_realize_parts`` and its
pullback ``_realize_backward``). Inference realizes the entity rows it needs;
scoring against all entities calls ``realize_all_entities``. Training
realizes the whole (N, 2d) entity table once per optimizer step: every
training context of that step gathers anchors, positives and negatives from
that table as slot-space leaves and records one touch (ids, leaf) per gather.
The step sums the touches' slot gradients per entity and pulls them back
through the realization once. ``ForwardContext.realize`` (the Skolem
output's realization) and the fused training distance
``ForwardContext.entity_distance`` are tape primitives with a hand-derived
backward; tests pin them to the composed tape ops.
"""

from __future__ import annotations

import functools
import hashlib
import json
import struct
from dataclasses import dataclass, field, asdict

import numpy as np

from . import algebra, autodiff as ad, logic
from .algebra import QueryPlan, QueryInstance
from .errors import DataError
from .logic import DEFAULT_ALPHA, TNORM_KINDS

MODES = ("bounds", "point")
UNION_MODES = ("dnf", "dm")
Slots = ad.Tensor | np.ndarray  # a tape tensor in training, a plain array in inference

CHECKPOINT_MAGIC = b"SKQE"
CHECKPOINT_VERSION = 1


@dataclass(frozen=True)
class ModelConfig:
    num_entities: int
    num_relations: int
    d: int = 32
    h: int = 128
    mode: str = "bounds"
    kind: str = "luk"
    attention: bool = True
    alpha: float = DEFAULT_ALPHA
    rho: float = 1000.0

    def __post_init__(self):
        if self.mode not in MODES:
            raise DataError(f"unknown embedding mode {self.mode!r}")
        if self.kind not in TNORM_KINDS:
            raise DataError(f"unknown t-norm kind {self.kind!r}")
        if self.d < 16 or self.d % 16 != 0:
            raise DataError("embedding dimension must be a positive multiple of 16")
        if self.num_entities < 1 or self.num_relations < 1:
            raise DataError("model needs at least one entity and one relation")


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
        ("G2b", (d,)),
        ("H1", (d, d // 4)),
        ("H1b", (d // 4,)),
        ("H2", (d // 4, d // 16)),
        ("H2b", (d // 16,)),
        ("H3", (d // 16, 1)),
        ("H3b", (1,)),
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
        header = json.loads(blob[12:12 + header_len].decode("utf-8"))
        config = ModelConfig(**header["config"])
        offset = 12 + header_len
        arrays = {}
        for name, shape in param_shapes(config):
            count = int(np.prod(shape))
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
    mode: str

    @property
    def single(self) -> np.ndarray:
        if len(self.branches) != 1:
            raise DataError("query embedding has multiple branches")
        return self.branches[0]


def _realize_parts(rows: np.ndarray, mode: str) -> tuple[np.ndarray, np.ndarray]:
    """Sigmoid of pre-activations and the slot vector built from it."""
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
    added in their order. One flat ``np.bincount`` over ``inverse * width +
    column`` adds in ``np.add.at``'s order, so the sums match it bit for bit
    (``np.add.reduceat`` regroups them)."""
    width = rows.shape[-1]
    bins = (inverse[:, None] * width + np.arange(width)).reshape(-1)
    return np.bincount(bins, weights=rows.reshape(-1),
                       minlength=count * width).reshape(count, width)


def realize_entity_rows(rows: np.ndarray, mode: str) -> np.ndarray:
    """Slot vectors of pre-activation entity rows: sigmoid, then in bounds mode
    lower = s1 and upper = s1 + s2 (1 - s1)."""
    return _realize_parts(np.asarray(rows, dtype=np.float64), mode)[1]


def realize_all_entities(params: ModelParams) -> np.ndarray:
    return realize_entity_rows(params.arrays["entity"], params.config.mode)


def entity_embedding(entity_id: int, params: ModelParams) -> np.ndarray:
    """Realized slot vector of one entity; valid bounds in bounds mode."""
    if not (0 <= entity_id < params.config.num_entities):
        raise DataError(f"entity id {entity_id} out of range")
    return realize_entity_rows(params.arrays["entity"][entity_id], params.config.mode)


def _branches(plan: QueryPlan, union_mode: str) -> tuple[QueryPlan, ...]:
    """The DNF branch plans, or the plan itself under De Morgan union."""
    if union_mode not in UNION_MODES:
        raise DataError(f"unknown union mode {union_mode!r}")
    return tuple(algebra.to_dnf(plan)) if union_mode == "dnf" else (plan,)


@functools.cache
def _slot_branches(structure: str, union_mode: str) -> tuple[QueryPlan, ...]:
    """Branch plans of a structure's template whose anchor/relation ids are
    positional slots; compiled once per process. Callers only read them."""
    template = algebra.TEMPLATES[structure]
    instance = QueryInstance(
        structure,
        tuple(range(template.num_anchors)),
        tuple(range(template.num_relations)),
    )
    return _branches(algebra.compile_instance(instance), union_mode)


class ForwardContext:
    """Per-tape forward pass over the model parameters.

    In training mode every parameter enters the tape as a leaf and touched
    embedding rows are recorded for sparse updates. In inference mode the
    parameters are the plain arrays, so every operator returns a plain array
    and the tape stays empty. The context owns its tape: dropping the context
    frees the tape and all its arrays.
    """

    def __init__(self, params: ModelParams, train: bool = False,
                 entities: tuple[np.ndarray, np.ndarray] | None = None):
        """``entities`` is the step's realized entity table, the
        ``_realize_parts`` pair (sigmoid, slot vectors) of all entity rows; a
        training context built without one realizes the table on first use."""
        self.params = params
        self.config = params.config
        self.tape = ad.Tape()
        self.train = train
        self.repair_count = 0
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
        """Realized slot vectors of entity rows. Training gathers them from
        the realized entity table into one slot-space leaf and records the
        touch; inference realizes the parameter rows."""
        ids = np.asarray(ids, dtype=np.int64)
        if not self.train:
            return self.realize(self.params.arrays["entity"][ids])
        if self._entities is None:
            self._entities = _realize_parts(self.params.arrays["entity"], self.config.mode)
        slots = self.tape.leaf(self._entities[1][ids])
        self.entity_touches.append((ids, slots))
        return slots

    def relation_rows(self, ids: np.ndarray) -> Slots:
        ids = np.asarray(ids, dtype=np.int64)
        rows = self._wrap(self.params.arrays["relation"][ids])
        if self.train:
            self.relation_touches.append((ids, rows))
        return rows

    def entity_distance(self, ids: np.ndarray, branches: list[ad.Tensor]) -> ad.Tensor:
        """L1 satisfiability distance D(q, e) of entities to their nearest branch.

        ``ids`` is (B,) or (B, K), each branch a (B, 2d) query tensor; the value
        has the shape of ``ids``. One primitive for gather -> sub -> abs ->
        mean -> branch minimum (ties go to the first branch). It works per
        distinct entity: the sorted distinct ids gather one slot-space leaf
        from the realized entity table (one touch per call), and the backward
        sums each draw's slot gradient per entity in draw order. The forward
        keeps the sign of each branch's (B, K, 2d) difference, so the backward
        does not form the difference again. The realization pullback is left
        to the owner of the table.
        """
        ids = np.asarray(ids, dtype=np.int64)
        unique, inverse = np.unique(ids.reshape(-1), return_inverse=True)
        rows = self.entity_slots(unique)
        n = rows.shape[-1]
        drawn = rows.value[inverse].reshape(ids.shape[0], -1, n)
        dists, signs = [], []
        for j, q in enumerate(branches):
            last = j == len(branches) - 1
            diff = np.subtract(drawn, q.value[:, None, :], out=drawn if last else None)
            dists.append(np.abs(diff).mean(axis=2))
            signs.append(np.sign(diff, out=diff))
        dists = np.stack(dists)
        choice = np.argmin(dists, axis=0)

        def backward(g):  # runs once, so it overwrites the sign buffers
            g = g.reshape(choice.shape)
            g_drawn = None
            for j, (q, sign) in enumerate(zip(branches, signs)):
                gj = np.multiply((g * (choice == j) / n)[..., None], sign, out=sign)
                q._accumulate(-gj.sum(axis=1))
                g_drawn = gj if g_drawn is None else np.add(g_drawn, gj, out=g_drawn)
            rows._accumulate(sum_rows(inverse, g_drawn.reshape(-1, n), unique.size))

        value = dists.min(axis=0).reshape(ids.shape)
        return ad.Tensor(self.tape, value, backward)

    # --- embedding-space operators -----------------------------------------

    def realize(self, pre: Slots) -> Slots:
        """Slot vectors from pre-activations (the Skolem MLP's last layer, or
        entity rows in inference): one primitive over the numpy realization,
        or that realization itself when ``pre`` is an array."""
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

    def negate(self, x: Slots) -> Slots:
        return logic.negate_slots(x, self.config.mode)

    def attention_weights(self, xs: list[Slots]) -> list[Slots]:
        """Per-dimension weights in (0,1] with max exactly 1 across inputs.

        Equal to the softargmax score divided by its max over inputs; the
        exp(g - max g) form computes that without the division.
        """
        if not self.config.attention:
            ones = np.ones(xs[0].shape[:-1] + (self.config.d,))
            return [ones for _ in xs]
        gs = []
        for x in xs:
            hidden = ad.relu(ad.matmul(x, self.dense("G1")) + self.dense("G1b"))
            gs.append(ad.matmul(hidden, self.dense("G2")) + self.dense("G2b"))
        peak = gs[0]
        for g in gs[1:]:
            peak = ad.maximum(peak, g)
        return [ad.exp(g - peak) for g in gs]

    def conjoin(self, xs: list[Slots]) -> Slots:
        tiled = [ad.concat_last([w, w]) for w in self.attention_weights(xs)]
        out, repairs = logic.conjoin_slots(self.config.kind, xs, tiled, self.config.alpha,
                                           self.config.mode)
        self.repair_count += repairs
        return out

    def disjoin(self, xs: list[Slots]) -> Slots:
        return self.negate(self.conjoin([self.negate(x) for x in xs]))

    # --- plan walking --------------------------------------------------------

    def _walk(self, plan: QueryPlan, anchor_slots, relation_rows,
              memo: dict[int, Slots] | None = None, node_id: int | None = None) -> Slots:
        """Embed ``node_id`` (default: the sink), memoizing visited nodes. A
        recursive closure here would be a reference cycle holding the tape."""
        memo = {} if memo is None else memo
        node_id = plan.sink if node_id is None else node_id
        if node_id in memo:
            return memo[node_id]

        def visit(i: int) -> Slots:
            return self._walk(plan, anchor_slots, relation_rows, memo, i)

        node = plan.nodes[node_id]
        if isinstance(node, algebra.Anchor):
            out = anchor_slots(node.entity)
        elif isinstance(node, algebra.Relate):
            out = self.skolem(relation_rows(node.relation), visit(node.input))
        elif isinstance(node, algebra.Negate):
            out = self.negate(visit(node.input))
        elif isinstance(node, algebra.Conjoin):
            out = self.conjoin([visit(i) for i in node.inputs])
        elif isinstance(node, algebra.Disjoin):
            out = self.disjoin([visit(i) for i in node.inputs])
        else:
            raise DataError(f"unknown plan node {type(node).__name__}")
        memo[node_id] = out
        return out

    def embed_instances(self, structure: str, anchors: np.ndarray,
                        relations: np.ndarray, union_mode: str = "dnf") -> list[Slots]:
        """Embed a batch of same-structure queries; one (B, 2d) embedding per
        DNF branch, a tensor in training mode and an array in inference."""
        anchors = np.atleast_2d(np.asarray(anchors, dtype=np.int64))
        relations = np.atleast_2d(np.asarray(relations, dtype=np.int64))
        return [
            self._walk(
                branch,
                anchor_slots=lambda slot: self.entity_slots(anchors[:, slot]),
                relation_rows=lambda slot: self.relation_rows(relations[:, slot]),
            )
            for branch in _slot_branches(structure, union_mode)
        ]

    def embed_plan(self, plan: QueryPlan, union_mode: str = "dnf",
                   collect: list | None = None) -> list[Slots]:
        """Embed one grounded plan (anchor nodes carry real entity ids).

        When ``collect`` is given, a (branch plan, node-id -> embedding) pair is
        appended per branch so callers can inspect intermediate embeddings.
        """
        outs = []
        for branch in _branches(plan, union_mode):
            memo: dict[int, Slots] = {}
            outs.append(
                self._walk(
                    branch,
                    anchor_slots=lambda eid: self.entity_slots(np.array([eid])),
                    relation_rows=lambda rid: self.relation_rows(np.array([rid])),
                    memo=memo,
                )
            )
            if collect is not None:
                collect.append((branch, memo))
        return outs


def embed_query(plan: QueryPlan, params: ModelParams,
                union_mode: str = "dnf") -> QueryEmbedding:
    """Embed a grounded plan; DNF mode returns one branch per union branch."""
    outs = ForwardContext(params).embed_plan(plan, union_mode)
    return QueryEmbedding(tuple(o[0] for o in outs), params.config.mode)


def embed_instance(instance: QueryInstance, params: ModelParams,
                   union_mode: str = "dnf") -> QueryEmbedding:
    return embed_query(algebra.compile_instance(instance), params, union_mode)


def score_entities(qe: QueryEmbedding, params: ModelParams,
                   entity_matrix: np.ndarray | None = None) -> np.ndarray:
    """Satisfiability 1 - D of every entity against the query embedding.

    DNF embeddings score as the best branch.
    """
    entities = realize_all_entities(params) if entity_matrix is None else entity_matrix
    best = None
    for branch in qe.branches:
        scores = 1.0 - np.mean(np.abs(entities - branch[None, :]), axis=1)
        best = scores if best is None else np.maximum(best, scores)
    return best


def predict_cardinality(qe: QueryEmbedding | np.ndarray, params: ModelParams) -> float:
    """Answer-size estimate in (0, rho) from the embedding's entropy vector."""
    config = params.config
    if config.mode != "bounds":
        raise DataError("cardinality prediction requires bounds mode")
    x = qe.single if isinstance(qe, QueryEmbedding) else np.asarray(qe, float)
    h = logic.entropy_slots(x)
    return float(cardinality_forward(np.atleast_2d(h), params)[0])


def cardinality_forward(h: np.ndarray, params: ModelParams) -> np.ndarray:
    a = params.arrays
    z1 = np.maximum(0.0, h @ a["H1"] + a["H1b"])
    z2 = np.maximum(0.0, z1 @ a["H2"] + a["H2b"])
    z3 = z2 @ a["H3"] + a["H3b"]
    return params.config.rho * 0.5 * (1.0 + np.tanh(0.5 * z3[..., 0]))
