"""Knowledge graph storage, fixed once built: vocabularies, sorted split-labelled
triple arrays, and the adjacency indexes sliced from them."""

from __future__ import annotations

import functools
import hashlib
import math
from collections.abc import Mapping
from pathlib import Path
from typing import NamedTuple

import numpy as np
from numpy.typing import ArrayLike

from .errors import DataError

SPLITS = ("train", "valid", "test")
HASH_ROWS = 1 << 14  # triples formatted per digest update, which bounds the hash's memory


class Vocabulary:
    """String <-> dense id mapping; ids are 0-based in first-appearance order."""

    def __init__(self, names: list[str] | None = None):
        self._names: list[str] = []
        self._ids: dict[str, int] = {}
        for name in names or []:
            self.add(name)

    def add(self, name: str) -> int:
        """Return the id of ``name``, registering it if unseen."""
        existing = self._ids.get(name)
        if existing is not None:
            return existing
        new_id = len(self._names)
        self._ids[name] = new_id
        self._names.append(name)
        return new_id

    def id_of(self, name: str) -> int:
        try:
            return self._ids[name]
        except KeyError:
            raise DataError(f"unknown name {name!r}") from None

    def name_of(self, idx: int) -> str:
        return self._names[idx]

    @property
    def names(self) -> list[str]:
        return list(self._names)

    def __contains__(self, name: str) -> bool:
        return name in self._ids

    def __len__(self) -> int:
        return len(self._names)


def _split_id(split: str) -> int:
    if split not in SPLITS:
        raise DataError(f"unknown split {split!r}")
    return SPLITS.index(split)


class KnowledgeGraph:
    """Entity/relation vocabularies plus split-labelled triples, fixed once built.

    ``rows`` maps split names to (head-id, relation-id, tail-id) rows; a row
    repeated within a split collapses, one under two splits is a DataError
    naming the split it came under first, and an id outside the vocabularies
    a ValueError. ``triples`` holds the distinct rows, a read-only (E, 3)
    int64 array in ascending (head, relation, tail) order, and ``split_ids``
    their indexes into ``SPLITS`` (int8). Graphs compare by identity;
    ``content_hash`` compares their content.
    """

    def __init__(self, entities: Vocabulary, relations: Vocabulary,
                 rows: Mapping[str, ArrayLike] | None = None):
        self.entities, self.relations = entities, relations
        rows = rows or {}
        ids = np.repeat(np.array([_split_id(split) for split in rows], dtype=np.int8),
                        [len(split_rows) for split_rows in rows.values()])
        triples = np.concatenate([np.empty((0, 3), np.int64)] + [
            np.asarray(split_rows, dtype=np.int64).reshape(len(split_rows), 3)
            for split_rows in rows.values()])
        keys = np.ravel_multi_index(triples.T, (len(entities), len(relations), len(entities)))
        order = np.argsort(keys, kind="stable")  # repeats stay in input order
        keys, triples, ids = keys[order], triples[order], ids[order]
        keep = np.diff(keys, prepend=-1) != 0
        clash = np.flatnonzero(~keep & (np.diff(ids, prepend=0) != 0))
        if len(clash):
            at = clash[np.argmin(order[clash])]  # the first clash in input order
            h, r, t = triples[at].tolist()
            raise DataError(
                f"triple in multiple splits: ({entities.name_of(h)}, {relations.name_of(r)}, "
                f"{entities.name_of(t)}) appears in both {SPLITS[ids[at - 1]]!r} "
                f"and {SPLITS[ids[at]]!r}"
            )
        self.triples, self.split_ids = triples[keep], ids[keep]
        self.triples.flags.writeable = self.split_ids.flags.writeable = False
        self._content_hash: str | None = None

    @property
    def num_entities(self) -> int:
        return len(self.entities)

    @property
    def num_relations(self) -> int:
        return len(self.relations)

    def split_triples(self, splits: tuple[str, ...] = SPLITS) -> np.ndarray:
        """The rows under ``splits``, in (head, relation, tail) order."""
        return self.triples[np.isin(self.split_ids, [_split_id(s) for s in splits])]

    def split_counts(self) -> dict[str, int]:
        return dict(zip(SPLITS, np.bincount(self.split_ids, minlength=len(SPLITS)).tolist()))

    def content_hash(self) -> str:
        """Stable digest of vocabularies and split-labelled triples, computed
        on the first call, ``HASH_ROWS`` rows at a time."""
        if self._content_hash is None:
            digest = hashlib.sha256(b"skqe-kg-v1\0")
            for vocabulary in (self.entities, self.relations):
                for name in vocabulary.names:
                    digest.update(name.encode("utf-8") + b"\0")
                digest.update(b"\1")
            for start in range(0, len(self.triples), HASH_ROWS):
                rows = slice(start, start + HASH_ROWS)
                fields = np.column_stack((self.triples[rows].astype(object),
                                          np.array(SPLITS, dtype=object)[self.split_ids[rows]]))
                lines = ("%d,%d,%d,%s\n" * len(fields)) % tuple(fields.ravel().tolist())
                digest.update(lines.encode("ascii"))
            self._content_hash = digest.hexdigest()
        return self._content_hash


class WalkTable(NamedTuple):
    """The incoming edges of every entity as int64 CSR arrays: rows
    ``offsets[t]:offsets[t + 1]`` of ``heads`` and ``relations`` hold the
    (head, relation) pairs of the edges into tail ``t``, in (head, relation)
    order."""

    offsets: np.ndarray  # (num_entities + 1,)
    heads: np.ndarray
    relations: np.ndarray


class OutTable(NamedTuple):
    """The outgoing edges of every (head, relation) pair with an edge as int64
    CSR arrays: ``keys`` holds the pairs' ``head * num_relations + relation``
    keys ascending, and rows ``offsets[i]:offsets[i + 1]`` of ``tails`` the
    tails of pair ``keys[i]``, ascending. ``keys`` ends in a sentinel (the
    largest int64 key, no rows) that no pair reaches, so a ``searchsorted``
    into it needs no bounds check."""

    keys: np.ndarray  # (pairs + 1,)
    offsets: np.ndarray  # (pairs + 2,)
    tails: np.ndarray


class AdjacencyIndex:
    """The edges of the triples whose split label is in ``splits`` (kept as a
    frozenset), as int64 CSR arrays sliced from the graph's sorted rows and
    not changed afterwards: ``out_table`` by (head, relation) pair, which the
    set oracle follows, and ``walk_table`` by tail, which the sampler's
    inverse walks follow. ``walk_table`` and ``tails`` are computed on first
    use and kept.
    """

    def __init__(self, graph: KnowledgeGraph, splits: tuple[str, ...]):
        heads, relations, tails = np.ascontiguousarray(graph.split_triples(splits).T)
        self.splits = frozenset(splits)
        self.num_entities = graph.num_entities
        self.num_relations = graph.num_relations
        pairs = heads * self.num_relations + relations  # ascending, tails ascending within
        starts = np.flatnonzero(np.diff(pairs, prepend=-1))
        self.out_table = OutTable(np.append(pairs[starts], np.iinfo(np.int64).max),
                                  np.append(starts, [len(pairs)] * 2), tails)

    def out_rows(self, heads: np.ndarray, relations: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """For each pair of the int64 arrays ``heads`` and ``relations``, the
        first row of its tails in ``out_table.tails`` and its number of rows:
        the pair's out-degree, 0 for a pair without an edge."""
        keys, offsets, _ = self.out_table
        wanted = heads * self.num_relations + relations
        at = np.searchsorted(keys, wanted)
        start = offsets[at]
        return start, np.where(keys[at] == wanted, offsets[at + 1] - start, 0)

    @functools.cached_property
    def walk_table(self) -> WalkTable:
        """The incoming edges of every entity, for the sampler's inverse walks.
        Built on first use, once per index, from ``out_table``."""
        keys, offsets, tails = self.out_table
        pairs = np.repeat(keys, np.diff(offsets))  # in (head, relation, tail) order
        order = np.argsort(tails, kind="stable")
        pairs = pairs[order]
        incoming = np.zeros(self.num_entities + 1, dtype=np.int64)
        np.cumsum(np.bincount(tails, minlength=self.num_entities), out=incoming[1:])
        return WalkTable(incoming, pairs // self.num_relations, pairs % self.num_relations)

    @functools.cached_property
    def tails(self) -> np.ndarray:
        """Every entity with an incoming edge, ascending (int64). Built on first use."""
        return np.flatnonzero(np.diff(self.walk_table.offsets))


def build_index(graph: KnowledgeGraph, splits: tuple[str, ...] = SPLITS) -> AdjacencyIndex:
    return AdjacencyIndex(graph, splits)


def _read_triple_file(path: Path, entities: Vocabulary,
                      relations: Vocabulary) -> list[tuple[int, int, int]]:
    rows = []
    with open(path, encoding="utf-8") as handle:
        for line_no, raw in enumerate(handle, start=1):
            line = raw.rstrip("\n")
            if not line.strip() or line.lstrip().startswith("#"):
                continue
            fields = line.split("\t")
            if len(fields) != 3:
                raise DataError(
                    f"{path}:{line_no}: expected 3 tab-separated fields, got {len(fields)}"
                )
            head, relation, tail = (f.strip() for f in fields)
            if not head or not relation or not tail:
                raise DataError(f"{path}:{line_no}: empty field")
            rows.append((entities.add(head), relations.add(relation), entities.add(tail)))
    return rows


def write_tsv(graph: KnowledgeGraph, out_dir: str | Path) -> dict[str, Path]:
    """Write ``train.tsv``/``valid.tsv``/``test.tsv`` with triples sorted by id."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    entity, relation = graph.entities.name_of, graph.relations.name_of
    paths = {}
    for split in SPLITS:
        path = out / f"{split}.tsv"
        with open(path, "w", encoding="utf-8") as handle:
            handle.writelines(f"{entity(h)}\t{relation(r)}\t{entity(t)}\n"
                              for h, r, t in graph.split_triples((split,)).tolist())
        paths[split] = path
    return paths


def load_tsv_dir(kg_dir: str | Path) -> KnowledgeGraph:
    """Load a graph from ``train.tsv``, ``valid.tsv`` and ``test.tsv`` in one
    directory, one ``head<TAB>relation<TAB>tail`` per line.

    Ids follow first appearance (train file first): a ``write_tsv`` round trip
    keeps each triple's names and split, not ids, ``content_hash`` or the
    isolated entities, which no triple names. Duplicate lines within one file
    collapse; the same triple in two splits is an error. Every file is read
    before the graph is built.
    """
    paths = {split: Path(kg_dir) / f"{split}.tsv" for split in SPLITS}
    for path in paths.values():
        if not path.exists():
            raise DataError(f"missing triple file: {path}")
    entities, relations = Vocabulary(), Vocabulary()
    rows = {split: _read_triple_file(path, entities, relations) for split, path in paths.items()}
    if not any(rows.values()):
        raise DataError("empty file set: no triples loaded")
    return KnowledgeGraph(entities, relations, rows)


def generate_synthetic(
    num_entities: int,
    num_relations: int,
    avg_out_degree: float,
    valid_frac: float,
    test_frac: float,
    seed: int,
) -> KnowledgeGraph:
    """Generate a random multi-relational graph with split-partitioned edges.

    Edge count is ``round(num_entities * avg_out_degree)`` distinct non-loop
    triples, drawn uniformly in rounds that keep their first new triples in
    draw order; ``valid_frac``/``test_frac`` of them (rounded) go to the
    held-out splits. Deterministic for a fixed seed. Raises DataError unless
    that count is at least 1 and at most half the possible non-loop triples.
    """
    if seed < 0:
        raise DataError(f"seed must be non-negative, got {seed}")
    if num_entities < 2 or num_relations < 1:
        raise DataError("need at least 2 entities and 1 relation")
    if not (0 < valid_frac < 1 and 0 < test_frac < 1 and valid_frac + test_frac < 1):
        raise DataError("split fractions must lie in (0,1) and sum below 1")
    if not (math.isfinite(avg_out_degree) and avg_out_degree > 0):
        raise DataError(f"average out-degree must be finite and positive, got {avg_out_degree}")
    wanted = num_entities * avg_out_degree  # inf past the float range, which int() refuses
    capacity = num_entities * num_relations * (num_entities - 1) // 2
    num_edges = int(round(wanted)) if wanted < capacity + 1 else None
    if num_edges is None or not 1 <= num_edges <= capacity:
        raise DataError(f"cannot place {wanted:.3g} distinct edges in this graph size")

    rng = np.random.default_rng(seed)
    size = (num_entities, num_relations, num_entities)
    keys = np.empty(0, dtype=np.int64)  # np.ravel_multi_index of (head, relation, tail)
    while len(keys) < num_edges:
        need = num_edges - len(keys)
        heads = rng.integers(0, num_entities, size=2 * need)
        rels = rng.integers(0, num_relations, size=2 * need)
        tails = rng.integers(0, num_entities, size=2 * need)
        drawn = np.ravel_multi_index((heads, rels, tails), size)[heads != tails]
        distinct, first = np.unique(drawn, return_index=True)
        first = np.sort(first[~np.isin(distinct, keys)])[:need]
        keys = np.append(keys, drawn[first])

    edges = np.stack(np.unravel_index(np.sort(keys), size), axis=1)
    order = rng.permutation(num_edges)
    n_test = int(round(test_frac * num_edges))
    n_valid = int(round(valid_frac * num_edges))
    if n_test + n_valid >= num_edges:
        raise DataError("split fractions leave no training edges")
    test, valid, train = np.split(order, [n_test, n_test + n_valid])
    return KnowledgeGraph(
        Vocabulary([f"e{i}" for i in range(num_entities)]),
        Vocabulary([f"r{i}" for i in range(num_relations)]),
        {"train": edges[train], "valid": edges[valid], "test": edges[test]},
    )
