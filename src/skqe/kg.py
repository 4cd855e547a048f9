"""Knowledge graph storage: vocabularies, split-labelled triples, adjacency indexes."""

from __future__ import annotations

import functools
import hashlib
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .errors import DataError

SPLITS = ("train", "valid", "test")


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


@dataclass(eq=False)
class KnowledgeGraph:
    """Entity/relation vocabularies plus a split-partitioned triple store.

    ``triples`` maps (head-id, relation-id, tail-id) to its split label, so
    the no-duplicate and split-partition invariants hold by construction.
    Graphs compare by identity; ``content_hash`` compares their content.
    """

    entities: Vocabulary
    relations: Vocabulary
    triples: dict[tuple[int, int, int], str] = field(default_factory=dict)

    def add_triple(self, head: int, relation: int, tail: int, split: str) -> None:
        if split not in SPLITS:
            raise DataError(f"unknown split {split!r}")
        key = (head, relation, tail)
        previous = self.triples.get(key)
        if previous is not None:
            if previous != split:
                raise DataError(
                    f"triple in multiple splits: {self.describe_triple(key)} "
                    f"appears in both {previous!r} and {split!r}"
                )
            return
        self.triples[key] = split

    @property
    def num_entities(self) -> int:
        return len(self.entities)

    @property
    def num_relations(self) -> int:
        return len(self.relations)

    def split_triples(self, splits: tuple[str, ...] = SPLITS) -> list[tuple[int, int, int]]:
        wanted = set(splits)
        return sorted(t for t, s in self.triples.items() if s in wanted)

    def split_counts(self) -> dict[str, int]:
        counts = {s: 0 for s in SPLITS}
        for split in self.triples.values():
            counts[split] += 1
        return counts

    def describe_triple(self, triple: tuple[int, int, int]) -> str:
        h, r, t = triple
        return f"({self.entities.name_of(h)}, {self.relations.name_of(r)}, {self.entities.name_of(t)})"

    def content_hash(self) -> str:
        """Stable digest of vocabularies and split-labelled triples."""
        digest = hashlib.sha256()
        digest.update(b"skqe-kg-v1\0")
        for name in self.entities.names:
            digest.update(name.encode("utf-8") + b"\0")
        digest.update(b"\1")
        for name in self.relations.names:
            digest.update(name.encode("utf-8") + b"\0")
        digest.update(b"\1")
        for (h, r, t), split in sorted(self.triples.items()):
            digest.update(f"{h},{r},{t},{split}\n".encode("ascii"))
        return digest.hexdigest()


class WalkTable(NamedTuple):
    """The incoming edges of every entity as int64 CSR arrays: rows
    ``offsets[t]:offsets[t + 1]`` of ``heads`` and ``relations`` hold the
    (head, relation) pairs of the edges into tail ``t``, in (head, relation)
    order."""

    offsets: np.ndarray  # (num_entities + 1,)
    heads: np.ndarray
    relations: np.ndarray


class AdjacencyIndex:
    """Forward map (head-id, relation-id) -> sorted tuple of tail-ids.

    Built from the subset of triples whose split label is in ``splits`` and
    not changed afterwards. The derived ``walk_table``, ``degree_table`` and
    ``tails`` are computed on first use and kept on the index.
    """

    def __init__(self, graph: KnowledgeGraph, splits: tuple[str, ...]):
        for s in splits:
            if s not in SPLITS:
                raise DataError(f"unknown split {s!r}")
        self.num_entities = graph.num_entities
        self.num_relations = graph.num_relations
        forward: dict[tuple[int, int], list[int]] = {}
        # sorted distinct triples, so each pair's tails arrive sorted and distinct
        for h, r, t in graph.split_triples(splits):
            forward.setdefault((h, r), []).append(t)
        self.forward: dict[tuple[int, int], tuple[int, ...]] = {
            key: tuple(tails) for key, tails in forward.items()
        }

    def lookup(self, head: int, relation: int) -> tuple[int, ...]:
        """Tails of ``relation`` edges out of ``head``; empty for unknown pairs."""
        return self.forward.get((head, relation), ())

    @functools.cached_property
    def walk_table(self) -> WalkTable:
        """The incoming edges of every entity, for the sampler's inverse walks.
        Built on first use, once per index."""
        edges = np.array([(h, r, t) for (h, r), tails in self.forward.items() for t in tails],
                         dtype=np.int64).reshape(-1, 3)
        heads, relations, tails = edges.T
        order = np.lexsort((relations, heads, tails))
        offsets = np.zeros(self.num_entities + 1, dtype=np.int64)
        np.cumsum(np.bincount(tails, minlength=self.num_entities), out=offsets[1:])
        return WalkTable(offsets, heads[order], relations[order])

    @functools.cached_property
    def degree_table(self) -> tuple[np.ndarray, np.ndarray]:
        """The out-degree of every (head, relation) pair with an edge, as
        ascending ``head * num_relations + relation`` keys and their counts
        (int64, O(edges) memory). Both end in a sentinel entry (the largest
        int64 key, count 0) that no pair reaches, so ``out_degree`` needs no
        bounds check. Built on first use from the walk table."""
        _, heads, relations = self.walk_table
        keys, counts = np.unique(heads * self.num_relations + relations, return_counts=True)
        return (np.append(keys, np.iinfo(np.int64).max),
                np.append(counts, 0).astype(np.int64))

    def out_degree(self, heads: np.ndarray, relations: np.ndarray) -> np.ndarray:
        """``len(lookup(h, r))`` for each pair of the int64 arrays ``heads``
        and ``relations``; 0 for pairs without an edge."""
        keys, counts = self.degree_table
        wanted = heads * self.num_relations + relations
        at = np.searchsorted(keys, wanted)
        return np.where(keys[at] == wanted, counts[at], 0)

    @functools.cached_property
    def tails(self) -> np.ndarray:
        """Every entity with an incoming edge, ascending (int64). Built on first use."""
        return np.flatnonzero(np.diff(self.walk_table.offsets))


def build_index(graph: KnowledgeGraph, splits: tuple[str, ...] = SPLITS) -> AdjacencyIndex:
    return AdjacencyIndex(graph, splits)


def _read_triple_file(path: Path, split: str, graph: KnowledgeGraph) -> None:
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
            h = graph.entities.add(head)
            r = graph.relations.add(relation)
            t = graph.entities.add(tail)
            graph.add_triple(h, r, t, split)


def write_tsv(graph: KnowledgeGraph, out_dir: str | Path) -> dict[str, Path]:
    """Write ``train.tsv``/``valid.tsv``/``test.tsv`` with triples sorted by id."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = {}
    for split in SPLITS:
        path = out / f"{split}.tsv"
        with open(path, "w", encoding="utf-8") as handle:
            for h, r, t in graph.split_triples((split,)):
                handle.write(
                    f"{graph.entities.name_of(h)}\t{graph.relations.name_of(r)}\t{graph.entities.name_of(t)}\n"
                )
        paths[split] = path
    return paths


def load_tsv_dir(kg_dir: str | Path) -> KnowledgeGraph:
    """Load a graph from ``train.tsv``, ``valid.tsv`` and ``test.tsv`` in one
    directory, one ``head<TAB>relation<TAB>tail`` per line.

    Ids follow first appearance (train file first): a ``write_tsv`` round trip
    keeps names, splits and triples, not ids or ``content_hash``. Duplicate
    lines within one file collapse; the same triple in two splits is an error.
    """
    graph = KnowledgeGraph(Vocabulary(), Vocabulary())
    paths = {split: Path(kg_dir) / f"{split}.tsv" for split in SPLITS}
    for path in paths.values():
        if not path.exists():
            raise DataError(f"missing triple file: {path}")
    for split, path in paths.items():
        _read_triple_file(path, split, graph)
    if not graph.triples:
        raise DataError("empty file set: no triples loaded")
    return graph


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
    triples; ``valid_frac``/``test_frac`` of them (rounded) go to the held-out
    splits. Deterministic for a fixed seed.
    """
    if seed < 0:
        raise DataError(f"seed must be non-negative, got {seed}")
    if num_entities < 2 or num_relations < 1:
        raise DataError("need at least 2 entities and 1 relation")
    if not (0 < valid_frac < 1 and 0 < test_frac < 1 and valid_frac + test_frac < 1):
        raise DataError("split fractions must lie in (0,1) and sum below 1")
    if not (math.isfinite(avg_out_degree) and avg_out_degree > 0):
        raise DataError(f"average out-degree must be finite and positive, got {avg_out_degree}")
    num_edges = int(round(num_entities * avg_out_degree))
    capacity = num_entities * num_relations * (num_entities - 1)
    if num_edges < 1 or num_edges > capacity // 2:
        raise DataError(f"cannot place {num_edges} distinct edges in this graph size")

    rng = np.random.default_rng(seed)
    chosen: set[tuple[int, int, int]] = set()
    while len(chosen) < num_edges:
        need = num_edges - len(chosen)
        heads = rng.integers(0, num_entities, size=2 * need)
        rels = rng.integers(0, num_relations, size=2 * need)
        tails = rng.integers(0, num_entities, size=2 * need)
        for h, r, t in zip(heads, rels, tails):
            if h == t:
                continue
            chosen.add((int(h), int(r), int(t)))
            if len(chosen) == num_edges:
                break

    edges = sorted(chosen)
    order = rng.permutation(num_edges)
    n_test = int(round(test_frac * num_edges))
    n_valid = int(round(valid_frac * num_edges))
    n_train = num_edges - n_test - n_valid
    if n_train < 1:
        raise DataError("split fractions leave no training edges")

    graph = KnowledgeGraph(
        Vocabulary([f"e{i}" for i in range(num_entities)]),
        Vocabulary([f"r{i}" for i in range(num_relations)]),
    )
    for pos, edge_idx in enumerate(order):
        h, r, t = edges[edge_idx]
        if pos < n_test:
            split = "test"
        elif pos < n_test + n_valid:
            split = "valid"
        else:
            split = "train"
        graph.add_triple(h, r, t, split)
    return graph
