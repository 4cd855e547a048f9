import itertools
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import reference_content_hash, reference_generate_synthetic
from skqe import kg, oracle
from skqe.errors import DataError


def write_lines(path, lines):
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")


def labelled_triples(graph) -> dict[tuple[int, int, int], str]:
    """Each triple of ``graph`` -> the name of its split."""
    return {tuple(row): kg.SPLITS[split]
            for row, split in zip(graph.triples.tolist(), graph.split_ids.tolist())}


class TestLoadTsv:
    def test_three_line_train_file(self, tmp_path):
        write_lines(tmp_path / "train.tsv", ["a\tr\tb", "a\tr\tc", "b\tq\td"])
        write_lines(tmp_path / "valid.tsv", [])
        write_lines(tmp_path / "test.tsv", [])
        graph = kg.load_tsv_dir(tmp_path)
        assert graph.num_entities == 4
        assert graph.num_relations == 2
        assert graph.split_counts() == {"train": 3, "valid": 0, "test": 0}

    def test_first_appearance_ids(self, tmp_path):
        write_lines(tmp_path / "train.tsv", ["x\tr\ty", "y\tr\tz"])
        write_lines(tmp_path / "valid.tsv", [])
        write_lines(tmp_path / "test.tsv", [])
        graph = kg.load_tsv_dir(tmp_path)
        assert [graph.entities.name_of(i) for i in range(3)] == ["x", "y", "z"]

    def test_duplicate_across_splits_rejected(self, tmp_path):
        write_lines(tmp_path / "train.tsv", ["a\tr\tb"])
        write_lines(tmp_path / "valid.tsv", [])
        write_lines(tmp_path / "test.tsv", ["a\tr\tb"])
        with pytest.raises(DataError, match=r"^triple in multiple splits: \(a, r, b\) "
                                            r"appears in both 'train' and 'test'$"):
            kg.load_tsv_dir(tmp_path)

    def test_duplicate_within_file_collapses(self, tmp_path):
        write_lines(tmp_path / "train.tsv", ["a\tr\tb", "a\tr\tb"])
        write_lines(tmp_path / "valid.tsv", [])
        write_lines(tmp_path / "test.tsv", [])
        graph = kg.load_tsv_dir(tmp_path)
        assert len(graph.triples) == 1

    def test_malformed_line_reports_position(self, tmp_path):
        write_lines(tmp_path / "train.tsv", ["a\tr\tb", "bad line"])
        write_lines(tmp_path / "valid.tsv", [])
        write_lines(tmp_path / "test.tsv", [])
        with pytest.raises(DataError, match="train.tsv:2"):
            kg.load_tsv_dir(tmp_path)

    def test_empty_file_set_rejected(self, tmp_path):
        for name in ("train.tsv", "valid.tsv", "test.tsv"):
            write_lines(tmp_path / name, [])
        with pytest.raises(DataError, match="empty"):
            kg.load_tsv_dir(tmp_path)

    def test_missing_file_rejected_before_any_is_read(self, tmp_path):
        write_lines(tmp_path / "train.tsv", ["bad line"])
        write_lines(tmp_path / "test.tsv", [])
        with pytest.raises(DataError, match="missing triple file: .*valid.tsv"):
            kg.load_tsv_dir(tmp_path)

    def test_comments_and_blank_lines_ignored(self, tmp_path):
        write_lines(tmp_path / "train.tsv", ["# header", "", "a\tr\tb"])
        write_lines(tmp_path / "valid.tsv", [])
        write_lines(tmp_path / "test.tsv", [])
        graph = kg.load_tsv_dir(tmp_path)
        assert len(graph.triples) == 1


class TestRoundTrip:
    def test_write_then_load_preserves_content(self, tmp_path, small_graph):
        kg.write_tsv(small_graph, tmp_path)
        reloaded = kg.load_tsv_dir(tmp_path)
        original = {
            (small_graph.entities.name_of(h), small_graph.relations.name_of(r),
             small_graph.entities.name_of(t), s)
            for (h, r, t), s in labelled_triples(small_graph).items()
        }
        loaded = {
            (reloaded.entities.name_of(h), reloaded.relations.name_of(r),
             reloaded.entities.name_of(t), s)
            for (h, r, t), s in labelled_triples(reloaded).items()
        }
        assert original == loaded

    def test_writer_is_byte_stable(self, tmp_path, small_graph):
        kg.write_tsv(small_graph, tmp_path / "one")
        kg.write_tsv(small_graph, tmp_path / "two")
        for split in kg.SPLITS:
            assert (tmp_path / "one" / f"{split}.tsv").read_bytes() == \
                   (tmp_path / "two" / f"{split}.tsv").read_bytes()


class TestGenerateSynthetic:
    def test_deterministic_for_seed(self, tmp_path):
        g1 = kg.generate_synthetic(200, 5, 4.0, 0.1, 0.1, seed=7)
        g2 = kg.generate_synthetic(200, 5, 4.0, 0.1, 0.1, seed=7)
        assert labelled_triples(g1) == labelled_triples(g2)
        kg.write_tsv(g1, tmp_path / "g1")
        kg.write_tsv(g2, tmp_path / "g2")
        for split in kg.SPLITS:
            assert (tmp_path / "g1" / f"{split}.tsv").read_bytes() == \
                   (tmp_path / "g2" / f"{split}.tsv").read_bytes()

    def test_invalid_fractions_rejected(self):
        with pytest.raises(DataError):
            kg.generate_synthetic(50, 3, 2.0, 0.5, 0.6, seed=1)

    @pytest.mark.parametrize("degree", [float("nan"), float("inf"), -1.0, 0.0])
    def test_degree_must_be_finite_and_positive(self, degree):
        with pytest.raises(DataError, match="average out-degree must be finite and positive"):
            kg.generate_synthetic(50, 3, degree, 0.1, 0.1, seed=1)

    @pytest.mark.parametrize("degree,count", [(1e300, "5e+301"), (1e308, "inf"), (0.005, "0.25")])
    def test_edge_count_must_fit_the_graph(self, degree, count, tmp_path, monkeypatch):
        # 50 * 1e308 overflows to inf, which int() refuses; the count prints short
        monkeypatch.chdir(tmp_path)
        with pytest.raises(DataError, match=rf"^cannot place {re.escape(count)} distinct edges "
                                            r"in this graph size$"):
            kg.generate_synthetic(50, 3, degree, 0.1, 0.1, seed=1)
        assert list(tmp_path.iterdir()) == []

    def test_golden_counts_for_seed_one(self, small_graph):
        # 50 entities * degree 2 = 100 edges; 10% valid, 10% test
        assert small_graph.split_counts() == {"train": 80, "valid": 10, "test": 10}
        assert small_graph.num_entities == 50
        assert small_graph.num_relations == 3


def tails_of(index, head: int, relation: int) -> tuple[int, ...]:
    """The row of ``index.out_table`` for (head, relation); empty without one."""
    keys, offsets, tails = index.out_table
    at = int(np.searchsorted(keys, head * index.num_relations + relation))
    if keys[at] != head * index.num_relations + relation:
        return ()
    return tuple(tails[offsets[at]:offsets[at + 1]].tolist())


class TestAdjacencyIndex:
    def test_train_only_index_hides_test_edge(self, toy_graph):
        train_index = kg.build_index(toy_graph, ("train",))
        assert tails_of(train_index, 1, 1) == ()

    def test_full_index_sees_test_edge(self, toy_graph):
        full_index = kg.build_index(toy_graph)
        assert tails_of(full_index, 1, 1) == (3,)

    def test_unknown_pair_gives_empty(self, toy_graph):
        full_index = kg.build_index(toy_graph)
        assert tails_of(full_index, 3, 0) == ()

    def test_index_matches_brute_force_scan(self, small_graph, small_index):
        triples = set(labelled_triples(small_graph))
        for h in range(small_graph.num_entities):
            for r in range(small_graph.num_relations):
                expected = tuple(sorted(t for (hh, rr, t) in triples if hh == h and rr == r))
                assert tails_of(small_index, h, r) == expected

    def test_lists_sorted_and_unique(self, small_graph):
        subsets = [c for n in (1, 2, 3) for c in itertools.combinations(kg.SPLITS, n)]
        for splits in subsets:
            index = kg.build_index(small_graph, splits)
            want: dict[tuple[int, int], set[int]] = {}
            for (h, r, t), split in labelled_triples(small_graph).items():
                if split in splits:
                    want.setdefault((h, r), set()).add(t)
            keys, offsets, tails = index.out_table
            assert all(a.dtype == np.int64 for a in index.out_table)
            # one row per pair with an edge, ascending, then the empty sentinel
            assert keys.tolist() == sorted(h * 3 + r for h, r in want) + [np.iinfo(np.int64).max]
            assert offsets[0] == 0 and offsets[-2] == offsets[-1] == len(tails)
            got = {divmod(int(key), 3): tails_of(index, *divmod(int(key), 3)) for key in keys[:-1]}
            assert got == {key: tuple(sorted(t)) for key, t in want.items()}
            for row in got.values():
                assert list(row) == sorted(set(row))

    def test_index_without_edges_has_only_the_sentinel(self, toy_graph):
        keys, offsets, tails = kg.build_index(toy_graph, ("valid",)).out_table
        assert keys.tolist() == [np.iinfo(np.int64).max]
        assert offsets.tolist() == [0, 0] and tails.tolist() == []


def test_content_hash_changes_with_data(small_graph):
    other = kg.generate_synthetic(50, 3, 2.0, 0.1, 0.1, seed=2)
    assert small_graph.content_hash() != other.content_hash()
    assert small_graph.content_hash() == small_graph.content_hash()


class TestGraphIdentity:
    """Graph content pinned by hash, and the numpy generator against the
    per-triple reference in ``conftest``."""

    def test_benchmark_graph_hash(self):
        graph = kg.generate_synthetic(2000, 20, 4.0, 0.1, 0.1, 0)
        assert graph.content_hash() == \
            "96dd73922d285b08f13ddc3037a1e28173ace5ce435e2dd6b2af9076ec5c6566"

    def test_small_graph_hash(self, small_graph):
        assert small_graph.content_hash() == \
            "1fa809454eff83d9dd0efa628c8973d26a44bda2b5460276ae4ee6770f0ee8a9"

    @settings(derandomize=True, max_examples=120, deadline=None)
    @given(num_entities=st.integers(2, 30), num_relations=st.integers(1, 4),
           fill=st.floats(0.01, 1.02), valid_frac=st.floats(0.01, 0.45),
           test_frac=st.floats(0.01, 0.45), seed=st.integers(0, 2**16))
    def test_generator_matches_the_per_triple_reference(
            self, num_entities, num_relations, fill, valid_frac, test_frac, seed):
        # ``fill`` is the share of the capacity asked for: near 1 the draws
        # take several rounds and repeat most keys, past 1 both refuse
        capacity = num_entities * num_relations * (num_entities - 1) // 2
        degree = fill * capacity / num_entities
        args = (num_entities, num_relations, degree, valid_frac, test_frac, seed)
        try:
            want = reference_generate_synthetic(*args)
        except DataError as exc:
            with pytest.raises(DataError, match=f"^{re.escape(str(exc))}$"):
                kg.generate_synthetic(*args)
            return
        graph = kg.generate_synthetic(*args)
        assert graph.triples.tolist() == [list(t) for t in sorted(want)]
        assert labelled_triples(graph) == want
        assert graph.content_hash() == reference_content_hash(
            graph.entities.names, graph.relations.names, want)

    def test_graph_is_hashed_once(self, tmp_path, monkeypatch):
        graph = kg.generate_synthetic(50, 3, 2.0, 0.1, 0.1, seed=1)
        calls = []
        sha256 = kg.hashlib.sha256
        monkeypatch.setattr(kg.hashlib, "sha256", lambda *data: calls.append(1) or sha256(*data))
        first = oracle.sample_dataset(graph, ("1p",), 5, 1, "train")
        oracle.sample_dataset(graph, ("2p",), 5, 2, "train")
        oracle.write_dataset(first, graph, tmp_path / "queries.jsonl")
        oracle.read_dataset(tmp_path / "queries.jsonl", graph)
        assert len(calls) == 1


class TestConstructor:
    VOCABULARIES = (["a", "b", "c"], ["r", "q"])

    def build(self, rows):
        return kg.KnowledgeGraph(*map(kg.Vocabulary, self.VOCABULARIES), rows)

    def test_rows_sorted_with_their_splits(self):
        graph = self.build({"train": [(2, 0, 1), (0, 1, 2)], "test": [(0, 0, 1)]})
        assert graph.triples.tolist() == [[0, 0, 1], [0, 1, 2], [2, 0, 1]]
        assert graph.triples.dtype == np.int64
        assert [kg.SPLITS[i] for i in graph.split_ids] == ["test", "train", "train"]
        assert graph.split_counts() == {"train": 2, "valid": 0, "test": 1}
        with pytest.raises(ValueError, match="read-only"):
            graph.triples[0, 0] = 1

    @pytest.mark.parametrize("first,second", [("train", "test"), ("test", "valid")])
    def test_cross_split_clash_names_the_earlier_split_first(self, first, second):
        with pytest.raises(DataError, match=rf"^triple in multiple splits: \(b, q, c\) "
                                            rf"appears in both '{first}' and '{second}'$"):
            self.build({first: [(0, 0, 1), (1, 1, 2)], second: [(1, 1, 2)]})

    def test_unknown_split_rejected(self):
        with pytest.raises(DataError, match="unknown split 'dev'"):
            self.build({"train": [(0, 0, 1)], "dev": [(1, 0, 2)]})

    @pytest.mark.parametrize("row", [(3, 0, 1), (0, 2, 1), (0, 0, -1)])
    def test_ids_outside_the_vocabularies_rejected(self, row):
        with pytest.raises(ValueError, match="invalid entry in coordinates array"):
            self.build({"train": [(0, 0, 1), row]})

    def test_key_overflow_rejected(self):
        class Sized:
            def __len__(self):
                return 2**31

        with pytest.raises(ValueError, match="invalid dims"):
            kg.KnowledgeGraph(Sized(), Sized())

    def test_row_repeated_within_a_split_collapses(self):
        graph = self.build({"valid": [(0, 0, 1), (0, 0, 1), (1, 1, 2)]})
        assert graph.triples.tolist() == [[0, 0, 1], [1, 1, 2]]
        assert graph.split_counts() == {"train": 0, "valid": 2, "test": 0}

    def test_vocabulary_only_graph_builds(self, placeholder_graph):
        assert placeholder_graph.triples.shape == (0, 3)
        assert placeholder_graph.split_counts() == {"train": 0, "valid": 0, "test": 0}
        assert placeholder_graph.content_hash() == reference_content_hash(
            ["a", "b", "c"], ["p", "q", "r"], {})
        keys, offsets, tails = kg.build_index(placeholder_graph).out_table
        assert keys.tolist() == [np.iinfo(np.int64).max] and tails.tolist() == []
