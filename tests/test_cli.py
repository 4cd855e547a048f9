import argparse
import dataclasses
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from skqe import algebra, cli, evaluation, kg, logic, model, oracle
from skqe.algebra import QueryInstance
from skqe.model import ModelConfig, ModelParams
from skqe.training import TrainConfig

from conftest import MALFORMED_HEADERS, write_checkpoint_version, write_malformed_checkpoint


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    assert cli.main(["gen-kg", "--entities", "30", "--relations", "3",
                     "--out", str(root / "kg")]) == cli.EXIT_OK
    assert cli.main(["gen-queries", "--kg", str(root / "kg"), "--mode", "train",
                     "--per-structure", "4", "--structures", "1p,2i,2u",
                     "--out", str(root / "q.jsonl")]) == cli.EXIT_OK
    graph = kg.load_tsv_dir(str(root / "kg"))
    config = ModelConfig(graph.num_entities, graph.num_relations, d=16, h=16)
    ModelParams.initialize(config, 0).save(root / "model.ckpt")
    return root


def _run(files, command, query):
    extra = ["--ckpt", str(files / "model.ckpt")] if command == "answer" else []
    return cli.main([command, "--kg", str(files / "kg"), *extra, "--query", query])


@pytest.mark.parametrize("command", ["oracle", "answer"])
def test_valid_query_exits_ok(files, command, capsys):
    assert _run(files, command, "EXISTS V,T . r0(e0,V) AND r1(V,T)") == cli.EXIT_OK
    assert capsys.readouterr().out


@pytest.mark.parametrize("command", ["oracle", "answer"])
@pytest.mark.parametrize("query", [
    "EXISTS T . r0(e0 T)",  # malformed: missing comma
    "EXISTS T . NOT r0(e0,T)",  # parses, but matches none of the 14 structures
], ids=["malformed", "unsupported"])
def test_bad_query_exits_with_usage_error(files, command, query, capsys):
    assert _run(files, command, query) == cli.EXIT_USAGE
    assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize("topk", ["0", "-1", "two"])
def test_answer_topk_below_one_is_a_usage_error(files, topk, capsys):
    with pytest.raises(SystemExit) as exit_info:
        cli.main(["answer", "--kg", str(files / "kg"), "--ckpt", str(files / "model.ckpt"),
                  "--query", "EXISTS T . r0(e0,T)", "--topk", topk])
    assert exit_info.value.code == cli.EXIT_USAGE
    assert "--topk" in capsys.readouterr().err


def _inputs(files, command):
    """Every required flag of ``command`` but ``--out``."""
    if command == "gen-queries":
        return ["--kg", str(files / "kg"), "--mode", "train"]
    ckpt = [] if command == "train" else ["--ckpt", str(files / "model.ckpt")]
    return ["--kg", str(files / "kg"), *ckpt, "--queries", str(files / "q.jsonl")]


@pytest.mark.parametrize("command,flag,value", [
    ("gen-queries", "--per-structure", "0"), ("gen-queries", "--per-structure", "-2"),
    ("train", "--steps", "0"), ("train", "--batch-size", "0"),
    ("train", "--log-every", "0"), ("train", "--negatives", "-1"),
])
def test_counts_below_one_are_usage_errors(files, command, flag, value, tmp_path, capsys):
    # argparse rejects these (exit 1); TrainConfig checks them again for the Python API (exit 2)
    with pytest.raises(SystemExit) as exit_info:
        cli.main([command, *_inputs(files, command), flag, value,
                  "--out", str(tmp_path / "out")])
    assert exit_info.value.code == cli.EXIT_USAGE
    assert f"{flag}: must be at least 1, got {value}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command,flag,value", [
    ("train", "--workers", "1"), ("train", "--workers", "2"),
    ("eval", "--workers", "1"), ("eval", "--workers", "2"),
    ("train", "--attention", "on"), ("train", "--attention", "off"),
    ("train", "--config", "train.cfg"), ("train", "--union", "dm"), ("train", "--union", "dnf"),
    ("correlate", "--statistic", "entropy"), ("correlate", "--statistic", "width"),
])
def test_removed_flag_is_a_usage_error(files, command, flag, value, tmp_path, capsys):
    with pytest.raises(SystemExit) as exit_info:
        cli.main([command, *_inputs(files, command), flag, value,
                  "--out", str(tmp_path / "out")])
    assert exit_info.value.code == cli.EXIT_USAGE
    assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["fit-cardinality", "eval-cardinality"])
def test_removed_command_is_a_usage_error(files, command, tmp_path, capsys):
    with pytest.raises(SystemExit) as exit_info:
        cli.main([command, *_inputs(files, command), "--out", str(tmp_path / "out")])
    assert exit_info.value.code == cli.EXIT_USAGE
    assert f"invalid choice: '{command}'" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


# a non-default value of each TrainConfig field as train's flag text, and as parsed
TRAIN_FLAG_VALUES = {
    "d": ("48", 48), "h": ("64", 64), "gamma": ("0.5", 0.5), "negatives": ("7", 7),
    "batch_size": ("9", 9), "steps": ("3", 3), "lr": ("0.01", 0.01), "seed": ("4", 4),
    "kind": ("prod", "prod"), "mode": ("point", "point"),
    "log_every": ("5", 5), "checkpoint_every": ("2", 2),
    "filter_negatives": None,  # set only through the Python API
    "union": None,  # a stub that accepts "dnf" only: a training query has one branch
}


@pytest.mark.parametrize("field", [f.name for f in dataclasses.fields(TrainConfig)])
def test_each_train_setting_has_one_flag(field):
    parser = cli.make_parser()
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    flags = [a.option_strings for a in commands.choices["train"]._actions if a.dest == field]
    if TRAIN_FLAG_VALUES[field] is None:
        assert flags == []
        return
    [[flag]] = flags
    text, value = TRAIN_FLAG_VALUES[field]
    assert value != getattr(TrainConfig(), field)
    args = parser.parse_args(["train", "--kg", "kg", "--queries", "q", "--out", "o", flag, text])
    assert cli.build_train_config(args) == dataclasses.replace(TrainConfig(), **{field: value})


@pytest.mark.parametrize("degree", ["nan", "inf", "-1", "0"])
def test_gen_kg_bad_degree_exits_with_data_error(degree, tmp_path, capsys):
    code = cli.main(["gen-kg", "--entities", "30", "--relations", "3",
                     f"--avg-degree={degree}", "--out", str(tmp_path / "kg")])
    assert code == cli.EXIT_DATA
    assert capsys.readouterr().err.startswith(
        "error: average out-degree must be finite and positive, got ")
    assert not (tmp_path / "kg").exists()


def test_gen_kg_degree_past_the_float_range_exits_with_data_error(tmp_path, capsys):
    # 30 * 1e308 is inf: a DataError, not an OverflowError traceback
    code = cli.main(["gen-kg", "--entities", "30", "--relations", "3",
                     "--avg-degree=1e308", "--out", str(tmp_path / "kg")])
    assert code == cli.EXIT_DATA
    assert capsys.readouterr().err == "error: cannot place inf distinct edges in this graph size\n"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command", ["gen-kg", "gen-queries", "train"])
def test_negative_seed_exits_with_data_error(files, command, tmp_path, capsys):
    # numpy's generators reject negative seeds with a ValueError traceback
    out = tmp_path / "out"
    inputs = {
        "gen-kg": ["--entities", "30", "--relations", "3"],
        "gen-queries": ["--kg", str(files / "kg"), "--mode", "train",
                        "--per-structure", "2"],
        "train": ["--kg", str(files / "kg"), "--queries", str(files / "q.jsonl"),
                  "--steps", "1"],
    }[command]
    code = cli.main([command, *inputs, "--seed", "-5", "--out", str(out)])
    assert code == cli.EXIT_DATA
    assert capsys.readouterr().err == "error: seed must be non-negative, got -5\n"
    assert not out.exists()


def _nearest(params, graph, branches: tuple) -> str:
    """An explanation line's three nearest entities by satisfiability."""
    scores = model.score_entities(model.QueryEmbedding(branches), params)
    top = np.argsort(-scores, kind="stable")[:3]
    return ", ".join(f"{graph.entities.name_of(int(e))} ({scores[e]:.3f})" for e in top)


@pytest.mark.parametrize("union", ["dnf", "dm"])
def test_answer_explains_every_node_of_every_branch(files, union, capsys):
    """``up`` under DNF is two 2p chains, one per disjunct; under De Morgan it
    is one plan with a union node. Each node's line names its nearest
    entities, which must be those of the same prefix embedded as a query of
    its own."""
    assert cli.main(["answer", "--kg", str(files / "kg"), "--ckpt", str(files / "model.ckpt"),
                     "--query", "EXISTS V,T . r0(e0,V) OR r1(e1,V) AND r2(V,T)",
                     "--union", union, "--topk", "3"]) == cli.EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    graph = kg.load_tsv_dir(str(files / "kg"))
    params = ModelParams.load(files / "model.ckpt")
    e0, e1 = (graph.entities.id_of(name) for name in ("e0", "e1"))
    r0, r1, r2 = (graph.relations.id_of(name) for name in ("r0", "r1", "r2"))

    def near(structure, anchors, relations):
        qe = model.embed_instance(QueryInstance(structure, anchors, relations), params, union)
        return _nearest(params, graph, qe.branches)

    def anchor(entity):
        return _nearest(params, graph, (model.entity_embedding(entity, params),))

    header = "intermediates (up, nearest entities by satisfiability):"
    if union == "dnf":
        explained = [
            f"# branch 1 {header}",
            f"#   anchor e0: {anchor(e0)}",
            f"#   relation r0: {near('1p', (e0,), (r0,))}",
            f"#   relation r2: {near('2p', (e0,), (r0, r2))}",
            f"# branch 2 {header}",
            f"#   anchor e1: {anchor(e1)}",
            f"#   relation r1: {near('1p', (e1,), (r1,))}",
            f"#   relation r2: {near('2p', (e1,), (r1, r2))}",
        ]
    else:
        explained = [
            f"# branch 1 {header}",
            f"#   anchor e0: {anchor(e0)}",
            f"#   relation r0: {near('1p', (e0,), (r0,))}",
            f"#   anchor e1: {anchor(e1)}",
            f"#   relation r1: {near('1p', (e1,), (r1,))}",
            f"#   union: {near('2u', (e0, e1), (r0, r1))}",
            f"#   relation r2: {near('up', (e0, e1), (r0, r1, r2))}",
        ]
    assert lines[3:] == explained
    assert anchor(e0).startswith("e0 (1.000)")


@pytest.mark.parametrize("union", ["dnf", "dm"])
@pytest.mark.parametrize("structure", ["pni", "inp"])
def test_answer_explains_the_negated_input(files, structure, union, capsys):
    """A negation's line follows its relation's line and names the nearest
    entities of ``logic.negate_slots`` applied to that relation prefix's
    embedding; neither structure has an OR, so both union modes give one
    branch."""
    query = {"pni": "EXISTS V,T . r0(e0,V) AND NOT r1(V,T) AND r2(e1,T)",
             "inp": "EXISTS V,T . r0(e0,V) AND NOT r1(e1,V) AND r2(V,T)"}[structure]
    assert cli.main(["answer", "--kg", str(files / "kg"), "--ckpt", str(files / "model.ckpt"),
                     "--query", query, "--union", union, "--topk", "3"]) == cli.EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    graph = kg.load_tsv_dir(str(files / "kg"))
    params = ModelParams.load(files / "model.ckpt")
    e0, e1 = (graph.entities.id_of(name) for name in ("e0", "e1"))
    r0, r1, r2 = (graph.relations.id_of(name) for name in ("r0", "r1", "r2"))

    def embed(structure, anchors, relations):
        return model.embed_instance(QueryInstance(structure, anchors, relations),
                                    params, union).branches

    def near(structure, anchors, relations):
        return _nearest(params, graph, embed(structure, anchors, relations))

    def negated(structure, anchors, relations):
        (branch,) = embed(structure, anchors, relations)
        return _nearest(params, graph, (logic.negate_slots(branch, params.config.mode),))

    def anchor(entity):
        return _nearest(params, graph, (model.entity_embedding(entity, params),))

    if structure == "pni":
        explained = [
            f"#   anchor e0: {anchor(e0)}",
            f"#   relation r0: {near('1p', (e0,), (r0,))}",
            f"#   relation r1: {near('2p', (e0,), (r0, r1))}",
            f"#   negation: {negated('2p', (e0,), (r0, r1))}",
            f"#   anchor e1: {anchor(e1)}",
            f"#   relation r2: {near('1p', (e1,), (r2,))}",
            f"#   intersection: {near('pni', (e0, e1), (r0, r1, r2))}",
        ]
    else:
        explained = [
            f"#   anchor e0: {anchor(e0)}",
            f"#   relation r0: {near('1p', (e0,), (r0,))}",
            f"#   anchor e1: {anchor(e1)}",
            f"#   relation r1: {near('1p', (e1,), (r1,))}",
            f"#   negation: {negated('1p', (e1,), (r1,))}",
            f"#   intersection: {near('2in', (e0, e1), (r0, r1))}",
            f"#   relation r2: {near('inp', (e0, e1), (r0, r1, r2))}",
        ]
    header = f"# branch 1 intermediates ({structure}, nearest entities by satisfiability):"
    assert lines[3:] == [header, *explained]
    assert explained[3] != f"#   negation: {near('2p', (e0,), (r0, r1))}"


def test_answer_topk_one_prints_one_entity(files, capsys):
    assert cli.main(["answer", "--kg", str(files / "kg"), "--ckpt", str(files / "model.ckpt"),
                     "--query", "EXISTS T . r0(e0,T)", "--topk", "1"]) == cli.EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    assert len([line for line in lines if not line.startswith("#")]) == 1


@pytest.mark.parametrize("command", ["eval"])
def test_dataset_without_queries_exits_with_data_error(files, command, tmp_path, capsys):
    graph = kg.load_tsv_dir(str(files / "kg"))
    oracle.write_dataset(oracle.QueryDataset([], {"mode": "generalization"}), graph,
                         tmp_path / "empty.jsonl")
    code = cli.main([command, "--kg", str(files / "kg"), "--ckpt", str(files / "model.ckpt"),
                     "--queries", str(tmp_path / "empty.jsonl"),
                     "--out", str(tmp_path / "metrics.csv")])
    assert code == cli.EXIT_DATA
    assert capsys.readouterr().err.startswith("error:")
    assert not (tmp_path / "metrics.csv").exists()


def _checkpoint(files, path, name, value):
    params = ModelParams.load(files / "model.ckpt")
    params.arrays[name][:] = value
    params.save(path)
    return str(path)


@pytest.mark.parametrize("command", ["eval", "answer"])
def test_non_finite_checkpoint_exits_with_data_error(files, command, tmp_path, capsys):
    ckpt = _checkpoint(files, tmp_path / "nan.ckpt", "F3b", np.nan)
    extra = (["--query", "EXISTS T . r0(e0,T)"] if command == "answer" else
             ["--queries", str(files / "q.jsonl"), "--out", str(tmp_path / "metrics.csv")])
    assert cli.main([command, "--kg", str(files / "kg"), "--ckpt", ckpt, *extra]) == cli.EXIT_DATA
    assert "non-finite values in parameters ['F3b']" in capsys.readouterr().err
    assert not (tmp_path / "metrics.csv").exists()


def test_eval_prints_the_near_ties_rescored(files, tmp_path, capsys):
    graph = kg.load_tsv_dir(str(files / "kg"))
    params = ModelParams.load(files / "model.ckpt")
    # identical entity rows tie exactly, which the float32 screen cannot settle
    params.arrays["entity"][1:4] = params.arrays["entity"][0]
    params.save(tmp_path / "twins.ckpt")
    out = tmp_path / "metrics.csv"
    assert cli.main(["eval", "--kg", str(files / "kg"), "--ckpt", str(tmp_path / "twins.ckpt"),
                     "--queries", str(files / "q.jsonl"), "--out", str(out)]) == cli.EXIT_OK
    report = evaluation.evaluate_ranking(oracle.read_dataset(files / "q.jsonl", graph), params)
    assert report.rescored > 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[1] == f"near ties rescored exactly: {report.rescored} entities"
    timing = re.fullmatch(r"ranking took (\d+\.\d{3}) s: (\d+\.\d) answers/s", lines[2])
    assert timing, lines[2]
    seconds, rate = map(float, timing.groups())
    answers = sum(len(ranks) for ranks in report.ranks.values())
    # the rate is the answers over the unrounded time the line rounds to ms
    assert rate > 0 and abs(rate * seconds - answers) <= rate * 5e-4 + 0.05
    assert lines[3:] == [f"metrics written to {out}"]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("command", ["eval", "answer", "correlate"])
def test_overflowing_checkpoint_exits_with_numeric_error(files, command, tmp_path, capsys):
    # finite weights whose Skolem layer overflows to inf, then to NaN
    ckpt = _checkpoint(files, tmp_path / "huge.ckpt", "F1", 1e308)
    extra = (["--query", "EXISTS T . r0(e0,T)"] if command == "answer" else
             ["--queries", str(files / "q.jsonl"), "--out", str(tmp_path / "out")])
    assert cli.main([command, "--kg", str(files / "kg"), "--ckpt", ckpt, *extra]) == \
        cli.EXIT_NUMERIC
    captured = capsys.readouterr()
    # every command meets the file's first record (1p) or the 1p --query first
    assert captured.err == "numeric failure: 1p: non-finite query embedding\n"
    assert "nan" not in captured.out
    assert not (tmp_path / "out").exists()


def test_correlate_writes_correlations_and_plot_data(files, tmp_path, monkeypatch, capsys):
    passes = []
    query_statistics = evaluation.query_statistics
    monkeypatch.setattr(evaluation, "query_statistics",
                        lambda *args: passes.append(1) or query_statistics(*args))
    assert cli.main(["correlate", "--kg", str(files / "kg"), "--ckpt", str(files / "model.ckpt"),
                     "--queries", str(files / "q.jsonl"), "--out", str(tmp_path / "corr.csv"),
                     "--emit-plot-data", str(tmp_path / "plot.csv")]) == cli.EXIT_OK
    assert passes == [1]  # one De Morgan pass feeds both statistics and both files
    dataset = oracle.read_dataset(str(files / "q.jsonl"), kg.load_tsv_dir(str(files / "kg")))
    records = query_statistics(dataset, ModelParams.load(files / "model.ckpt"))
    reports = [evaluation.uncertainty_correlation(records, s) for s in ("entropy", "width")]
    corr = (tmp_path / "corr.csv").read_text().splitlines()
    assert corr[0] == "structure,metric,value,count"
    assert corr[1:] == [f"{structure},{metric},{value:.6f},{count}" for report in reports
                        for structure, metric, value, count in report.to_rows()]
    assert [line.split(",")[1] for line in corr[1:]] == [
        f"{kind}_{statistic}" for statistic in ("entropy", "width")
        for _ in ("1p", "2i", "2u", "avg") for kind in ("spearman", "pearson")]
    out = capsys.readouterr().out.splitlines()
    for line, report in zip(out, reports):
        sp, pe = report.average()
        assert line == (f"{report.statistic}: Spearman {sp:.4f}, Pearson {pe:.4f} "
                        f"averaged over 3 structures")
    plot = [line.split(",") for line in (tmp_path / "plot.csv").read_text().splitlines()]
    assert plot[0] == ["structure", "answer_size", "entropy", "width"]
    assert len(plot) == 1 + len(dataset.samples)
    d = records["entropy"].shape[1]
    for row, sample in zip(plot[1:], dataset.samples):  # dataset order
        single = model.embed_instance(sample.instance, ModelParams.load(files / "model.ckpt"),
                                      "dm").branches[0]
        assert row[0] == sample.instance.structure
        assert int(row[1]) == len(sample.answers)
        assert float(row[2]) == pytest.approx(np.sum(logic.entropy_slots(single)), abs=1e-6)
        assert float(row[3]) == pytest.approx(np.sum(single[d:] - single[:d]), abs=1e-6)


def test_correlate_writes_plot_data_into_a_missing_directory(files, tmp_path):
    plot = tmp_path / "missing" / "plot.csv"
    assert cli.main(["correlate", "--kg", str(files / "kg"), "--ckpt", str(files / "model.ckpt"),
                     "--queries", str(files / "q.jsonl"), "--out", str(tmp_path / "corr.csv"),
                     "--emit-plot-data", str(plot)]) == cli.EXIT_OK
    assert plot.read_text().startswith("structure,answer_size,entropy,width\n")


def test_eval_of_a_file_without_a_mode_ranks_as_its_mode(files, tmp_path):
    queries = tmp_path / "modeless.jsonl"
    queries.write_text("".join((files / "q.jsonl").read_text().splitlines(True)[1:]))
    for name, path in (("moded", files / "q.jsonl"), ("modeless", queries)):
        assert cli.main(["eval", "--kg", str(files / "kg"), "--ckpt", str(files / "model.ckpt"),
                         "--queries", str(path), "--out", str(tmp_path / f"{name}.csv")]) == \
            cli.EXIT_OK
    assert (tmp_path / "modeless.csv").read_text() == (tmp_path / "moded.csv").read_text()


@pytest.mark.parametrize("mode", ["train", "generalization"])
@pytest.mark.parametrize("command", ["eval", "correlate"])
def test_query_against_its_mode_exits_with_data_error(files, command, mode, tmp_path, capsys):
    """The fixture's train file with one easy answer made hard, or relabelled
    as generalization, whose queries then have no hard answer."""
    lines = [json.loads(line) for line in (files / "q.jsonl").read_text().splitlines()]
    if mode == "train":
        first = lines[1]
        first["easy"], first["hard"] = first["easy"][1:], first["easy"][:1]
        message = "train query 0 (1p) has hard answers; no train query needs a held-out edge"
    else:
        lines[0]["meta"]["mode"] = "generalization"
        message = ("generalization query 0 (1p) has no hard answer; "
                   "every generalization query needs a held-out edge")
    queries = tmp_path / "q.jsonl"
    queries.write_text("".join(json.dumps(line) + "\n" for line in lines))
    code = cli.main([command, "--kg", str(files / "kg"), "--ckpt", str(files / "model.ckpt"),
                     "--queries", str(queries), "--out", str(tmp_path / "out")])
    assert code == cli.EXIT_DATA
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["correlate"])
def test_point_mode_checkpoint_exits_with_data_error(files, command, tmp_path, capsys):
    graph = kg.load_tsv_dir(str(files / "kg"))
    config = ModelConfig(graph.num_entities, graph.num_relations, d=16, h=16, mode="point")
    ModelParams.initialize(config, 0).save(tmp_path / "point.ckpt")
    extra = ["--emit-plot-data", str(tmp_path / "plot.csv")] if command == "correlate" else []
    code = cli.main([command, "--kg", str(files / "kg"), "--ckpt", str(tmp_path / "point.ckpt"),
                     "--queries", str(files / "q.jsonl"), "--out", str(tmp_path / "out"),
                     *extra])
    assert code == cli.EXIT_DATA
    assert capsys.readouterr().err == "error: entropy and width statistics require bounds mode\n"
    assert [p.name for p in tmp_path.iterdir()] == ["point.ckpt"]


def test_diverged_training_exits_with_numeric_error_and_writes_no_checkpoint(files, tmp_path,
                                                                            capsys):
    queries = tmp_path / "train.jsonl"
    assert cli.main(["gen-queries", "--kg", str(files / "kg"), "--mode", "train",
                     "--per-structure", "4", "--structures", "1p,2i",
                     "--out", str(queries)]) == cli.EXIT_OK
    capsys.readouterr()
    out = tmp_path / "m.ckpt"
    code = cli.main(["train", "--kg", str(files / "kg"), "--queries", str(queries),
                     "--out", str(out), "--steps", "1", "--lr", "1e300", "--batch-size", "4",
                     "--negatives", "4", "--d", "16", "--h", "16"])
    assert code == cli.EXIT_NUMERIC
    captured = capsys.readouterr()
    assert captured.err == "numeric failure: 1p: non-finite query embedding\n"
    assert captured.out == ""
    assert [p.name for p in tmp_path.iterdir()] == ["train.jsonl"]


def test_numeric_failure_is_the_only_line_on_stderr(files, tmp_path):
    """In a fresh interpreter, where numpy's overflow warnings would print."""
    ckpt = _checkpoint(files, tmp_path / "huge.ckpt", "F1", 1e308)
    done = subprocess.run(
        [sys.executable, "-m", "skqe.cli", "eval", "--kg", str(files / "kg"), "--ckpt", ckpt,
         "--queries", str(files / "q.jsonl"), "--out", str(tmp_path / "out")],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])})
    assert done.returncode == cli.EXIT_NUMERIC
    assert done.stderr == "numeric failure: 1p: non-finite query embedding\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command,flag,value", [
    ("gen-queries", "--structures", ""), ("gen-queries", "--structures", "1p,,2i"),
    ("oracle", "--splits", ""), ("oracle", "--splits", "train,"),
])
def test_empty_name_in_a_list_flag_is_a_usage_error(files, command, flag, value, tmp_path,
                                                    capsys):
    extra = (["--mode", "train", "--per-structure", "2", "--out", str(tmp_path / "out")]
             if command == "gen-queries" else ["--query", "EXISTS T . r0(e0,T)"])
    with pytest.raises(SystemExit) as exit_info:
        cli.main([command, "--kg", str(files / "kg"), *extra, flag, value])
    assert exit_info.value.code == cli.EXIT_USAGE
    captured = capsys.readouterr()
    assert f"argument {flag}: empty name in {value!r}" in captured.err
    assert captured.out == ""
    assert not (tmp_path / "out").exists()


def _with_extra_anchor(files, path, every: bool) -> str:
    """The query file with two anchors on the first (or every) 1p record."""
    lines = (files / "q.jsonl").read_text().splitlines()
    changed = 0
    for i, line in enumerate(lines):
        record = json.loads(line)
        if record.get("structure") == "1p" and (every or not changed):
            record["anchors"] = record["anchors"] * 2
            lines[i] = json.dumps(record)
            changed += 1
    assert changed
    path.write_text("\n".join(lines) + "\n")
    return str(path)


@pytest.mark.parametrize("every", [False, True], ids=["one-record", "every-record"])
@pytest.mark.parametrize("command", ["eval", "train"])
def test_wrong_anchor_count_exits_with_data_error(files, command, every, tmp_path, capsys):
    queries = _with_extra_anchor(files, tmp_path / "q.jsonl", every)
    out = tmp_path / "out"
    extra = (["--ckpt", str(files / "model.ckpt")] if command == "eval" else
             ["--steps", "1", "--batch-size", "4", "--negatives", "4", "--d", "16", "--h", "16"])
    code = cli.main([command, "--kg", str(files / "kg"), "--queries", queries,
                     "--out", str(out), *extra])
    assert code == cli.EXIT_DATA
    assert "1p expects 1 anchors, got 2" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("extra", [
    ["--structures", "1p,1p"],
    ["--negation-frac", "nan"],
    ["--negation-frac", "inf"],
    ["--negation-frac", "-1"],
    ["--negation-frac", "0"],
], ids=["repeated-structure", "frac-nan", "frac-inf", "frac-negative", "frac-zero"])
def test_gen_queries_bad_sampling_request_exits_with_data_error(files, extra, tmp_path, capsys):
    out = tmp_path / "q.jsonl"
    code = cli.main(["gen-queries", "--kg", str(files / "kg"), "--mode", "train",
                     "--per-structure", "5", *extra, "--out", str(out)])
    assert code == cli.EXIT_DATA
    assert capsys.readouterr().err.startswith("error:")
    assert not out.exists()


def test_gen_queries_without_a_query_exits_with_data_error(tmp_path, capsys):
    # without valid or test edges no test query has a hard answer
    assert cli.main(["gen-kg", "--entities", "30", "--relations", "3",
                     "--out", str(tmp_path / "kg")]) == cli.EXIT_OK
    for split in ("valid", "test"):
        (tmp_path / "kg" / f"{split}.tsv").write_text("")
    capsys.readouterr()
    out = tmp_path / "q.jsonl"
    code = cli.main(["gen-queries", "--kg", str(tmp_path / "kg"), "--mode", "test",
                     "--per-structure", "3", "--out", str(out)])
    assert code == cli.EXIT_DATA
    captured = capsys.readouterr()
    assert [line for line in captured.err.splitlines() if "error" in line] == [
        f"error: sampled no test query in {14 * 300:,} attempts over 14 structures; "
        f"wrote no dataset"]
    assert captured.out == "" and not out.exists()


def test_gen_queries_names_each_shortfall_with_its_attempts(files, tmp_path, capsys):
    # 30 entities and 3 relations hold fewer than 100 distinct 1p queries;
    # 2in asks for round(100 * 0.05) = 5 and gets them
    out = tmp_path / "q.jsonl"
    code = cli.main(["gen-queries", "--kg", str(files / "kg"), "--mode", "train",
                     "--per-structure", "100", "--structures", "1p,2in",
                     "--negation-frac", "0.05", "--out", str(out)])
    assert code == cli.EXIT_OK
    meta = oracle.read_dataset(out, kg.load_tsv_dir(files / "kg")).metadata
    got = meta["counts"]["1p"]
    assert got < 100 and meta["counts"]["2in"] == 5
    assert meta["attempts"]["1p"] == 100 * oracle.RETRY_FACTOR
    assert capsys.readouterr().out.splitlines()[-1] == \
        f"short of the request: 1p {got}/100 after 10,000 attempts"


def test_gen_queries_prints_its_time_and_yield_and_writes_the_dataset(files, tmp_path,
                                                                      capsys):
    out = tmp_path / "q.jsonl"
    code = cli.main(["gen-queries", "--kg", str(files / "kg"), "--mode", "generalization",
                     "--per-structure", "6", "--structures", "1p,2in,inp", "--seed", "3",
                     "--out", str(out)])
    assert code == cli.EXIT_OK
    graph = kg.load_tsv_dir(files / "kg")
    dataset = oracle.sample_dataset(graph, ("1p", "2in", "inp"), 6, 3, "generalization")
    oracle.write_dataset(dataset, graph, tmp_path / "library.jsonl")
    assert out.read_bytes() == (tmp_path / "library.jsonl").read_bytes()
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == f"wrote {len(dataset.samples)} queries (generalization) to {out}"
    timing = re.fullmatch(r"sampling took (\d+\.\d{3}) s: (\d+\.\d) queries/s", lines[1])
    assert timing, lines[1]
    seconds, rate = map(float, timing.groups())
    # the rate is the queries over the unrounded time the line rounds to ms
    assert rate > 0 and abs(rate * seconds - len(dataset.samples)) <= rate * 5e-4 + 0.05
    counts, attempts = dataset.metadata["counts"], dataset.metadata["attempts"]
    assert lines[2] == "yield (queries/attempts): " + ", ".join(
        f"{s} {counts[s]}/{attempts[s]:,}" for s in ("1p", "2in", "inp"))
    assert len(lines) == 3 + (min(counts.values()) < 6)  # and a shortfall line


@pytest.mark.parametrize("record, message", [
    ("3", "expected a JSON object, got int"),
    ('{"structure": "1p", "anchors": "e1", "relations": ["r0"]}',
     "query record field 'anchors' must be a list of names"),
    ('{"structure": "1p", "anchors": ["e1"], "relations": ["r0"], "hard": ["e2", "e3", "e2"]}',
     "query record field 'hard' lists 'e2' more than once"),
], ids=["int-line", "anchors-string", "hard-name-twice"])
@pytest.mark.parametrize("command", ["eval", "train"])
def test_malformed_query_file_exits_with_data_error(files, command, record, message,
                                                    tmp_path, capsys):
    queries = tmp_path / "q.jsonl"
    lines = (files / "q.jsonl").read_text().splitlines()
    queries.write_text("\n".join([lines[0], record, *lines[1:]]) + "\n")
    out = tmp_path / "out"
    extra = (["--ckpt", str(files / "model.ckpt")] if command == "eval" else
             ["--steps", "1", "--batch-size", "4", "--negatives", "4", "--d", "16", "--h", "16"])
    code = cli.main([command, "--kg", str(files / "kg"), "--queries", str(queries),
                     "--out", str(out), *extra])
    assert code == cli.EXIT_DATA
    assert capsys.readouterr().err == f"error: {queries}:2: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("command", ["eval", "answer"])
@pytest.mark.parametrize("case", MALFORMED_HEADERS)
def test_malformed_checkpoint_header_exits_with_data_error(files, case, command, tmp_path,
                                                           capsys):
    ckpt = write_malformed_checkpoint(files / "model.ckpt", tmp_path / "bad.ckpt", case)
    extra = (["--query", "EXISTS T . r0(e0,T)"] if command == "answer" else
             ["--queries", str(files / "q.jsonl"), "--out", str(tmp_path / "metrics.csv")])
    assert cli.main([command, "--kg", str(files / "kg"), "--ckpt", ckpt, *extra]) == cli.EXIT_DATA
    assert capsys.readouterr().err.startswith(f"error: {ckpt}: ")
    assert not (tmp_path / "metrics.csv").exists()


@pytest.mark.parametrize("version", [1, 2, 4])
@pytest.mark.parametrize("command", ["eval", "answer"])
def test_older_checkpoint_version_exits_with_data_error(files, command, version, tmp_path,
                                                        capsys):
    ckpt = write_checkpoint_version(files / "model.ckpt", tmp_path / "old.ckpt", version)
    extra = (["--query", "EXISTS T . r0(e0,T)"] if command == "answer" else
             ["--queries", str(files / "q.jsonl"), "--out", str(tmp_path / "metrics.csv")])
    assert cli.main([command, "--kg", str(files / "kg"), "--ckpt", ckpt, *extra]) == cli.EXIT_DATA
    assert capsys.readouterr().err == f"error: {ckpt}: unsupported checkpoint version {version}\n"
    assert not (tmp_path / "metrics.csv").exists()


def test_checkpoint_with_a_non_string_graph_hash_exits_with_data_error(files, tmp_path,
                                                                      capsys):
    params = ModelParams.load(files / "model.ckpt")
    params.extra["graph_hash"] = 5
    params.save(tmp_path / "m.ckpt")
    code = cli.main(["eval", "--kg", str(files / "kg"), "--ckpt", str(tmp_path / "m.ckpt"),
                     "--queries", str(files / "q.jsonl"), "--out", str(tmp_path / "m.csv")])
    assert code == cli.EXIT_DATA
    assert capsys.readouterr().err.startswith(
        f"error: checkpoint {tmp_path / 'm.ckpt'} was trained on a different graph (hash 5…")


@pytest.mark.parametrize("command", ["eval", "train"])
def test_dataset_with_a_non_string_graph_hash_exits_with_data_error(files, command, tmp_path,
                                                                    capsys):
    queries = tmp_path / "q.jsonl"
    lines = (files / "q.jsonl").read_text().splitlines()
    meta = json.loads(lines[0])
    meta["meta"]["graph_hash"] = 5
    queries.write_text("\n".join([json.dumps(meta), *lines[1:]]) + "\n")
    extra = (["--ckpt", str(files / "model.ckpt")] if command == "eval" else
             ["--steps", "1", "--batch-size", "4", "--negatives", "4", "--d", "16", "--h", "16"])
    code = cli.main([command, "--kg", str(files / "kg"), "--queries", str(queries),
                     "--out", str(tmp_path / "out"), *extra])
    assert code == cli.EXIT_DATA
    assert capsys.readouterr().err.startswith(
        f"error: dataset {queries} was generated for a different graph (hash 5…")


def test_default_train_mode_file_holds_the_training_structures_and_trains(files, tmp_path,
                                                                          capsys):
    queries = tmp_path / "train.jsonl"
    assert cli.main(["gen-queries", "--kg", str(files / "kg"), "--mode", "train",
                     "--per-structure", "3", "--seed", "4", "--out", str(queries)]) == cli.EXIT_OK
    # each structure samples from its own stream, so the records are those of
    # all 14 structures less the evaluation-only ones, in training order
    graph = kg.load_tsv_dir(files / "kg")
    every = oracle.sample_dataset(graph, algebra.STRUCTURE_NAMES, 3, 4, "train")
    oracle.write_dataset(every, graph, tmp_path / "every.jsonl")
    records = [json.loads(line) for line in queries.read_text().splitlines()[1:]]
    want = [json.loads(line) for line in (tmp_path / "every.jsonl").read_text().splitlines()[1:]]
    want = [r for r in want if r["structure"] in algebra.TRAIN_STRUCTURES]
    assert records == sorted(want, key=lambda r: algebra.TRAIN_STRUCTURES.index(r["structure"]))
    assert {r["structure"] for r in records} == set(algebra.TRAIN_STRUCTURES)
    code = cli.main(["train", "--kg", str(files / "kg"), "--queries", str(queries),
                     "--out", str(tmp_path / "m.ckpt"), "--steps", "1", "--batch-size", "4",
                     "--negatives", "4", "--d", "16", "--h", "16"])
    assert code == cli.EXIT_OK, capsys.readouterr().err


@pytest.mark.parametrize("mode", ["bounds", "point"])
@pytest.mark.parametrize("d", [1, 5])
def test_any_embedding_dimension_trains_evaluates_answers_and_correlates(files, d, mode,
                                                                        tmp_path, capsys):
    queries, ckpt = tmp_path / "train.jsonl", tmp_path / "m.ckpt"
    inputs = ["--kg", str(files / "kg"), "--ckpt", str(ckpt), "--queries", str(files / "q.jsonl")]
    assert cli.main(["gen-queries", "--kg", str(files / "kg"), "--mode", "train",
                     "--per-structure", "3", "--structures", "1p,2p,2in",
                     "--out", str(queries)]) == cli.EXIT_OK
    assert cli.main(["train", "--kg", str(files / "kg"), "--queries", str(queries),
                     "--out", str(ckpt), "--d", str(d), "--h", "8", "--mode", mode,
                     "--steps", "2", "--batch-size", "4", "--negatives", "4"]) == cli.EXIT_OK
    assert ModelParams.load(ckpt).config.d == d
    assert cli.main(["eval", *inputs, "--out", str(tmp_path / "metrics.csv")]) == cli.EXIT_OK
    assert cli.main(["answer", "--kg", str(files / "kg"), "--ckpt", str(ckpt),
                     "--query", "EXISTS V,T . r0(e0,V) AND r1(V,T)"]) == cli.EXIT_OK
    capsys.readouterr()
    code = cli.main(["correlate", *inputs, "--out", str(tmp_path / "corr.csv")])
    if mode == "bounds":
        assert code == cli.EXIT_OK
        assert (tmp_path / "corr.csv").read_text().startswith("structure,metric,value,count\n")
    else:  # the statistics read interval widths, which point mode lacks
        assert code == cli.EXIT_DATA
        assert capsys.readouterr().err == \
            "error: entropy and width statistics require bounds mode\n"


def test_gen_queries_entailment_mode_is_a_usage_error(files, tmp_path, capsys):
    out = tmp_path / "q.jsonl"
    with pytest.raises(SystemExit) as exit_info:
        cli.main(["gen-queries", "--kg", str(files / "kg"), "--mode", "entailment",
                  "--per-structure", "2", "--out", str(out)])
    assert exit_info.value.code == cli.EXIT_USAGE
    assert "--mode: invalid choice: 'entailment'" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("mode", ["entailment", "generalisation"])
@pytest.mark.parametrize("command", ["eval", "train"])
def test_dataset_of_an_unsupported_mode_exits_with_data_error(files, command, mode, tmp_path,
                                                              capsys):
    queries = tmp_path / "q.jsonl"
    lines = (files / "q.jsonl").read_text().splitlines()
    meta = json.loads(lines[0])
    meta["meta"]["mode"] = mode
    queries.write_text("\n".join([json.dumps(meta), *lines[1:]]) + "\n")
    extra = (["--ckpt", str(files / "model.ckpt")] if command == "eval" else
             ["--steps", "1", "--batch-size", "4", "--negatives", "4", "--d", "16", "--h", "16"])
    code = cli.main([command, "--kg", str(files / "kg"), "--queries", str(queries),
                     "--out", str(tmp_path / "out"), *extra])
    assert code == cli.EXIT_DATA
    assert capsys.readouterr().err == (f"error: dataset {queries} has mode {mode!r}; "
                                       f"supported modes are generalization, train, valid, test\n")
    assert not (tmp_path / "out").exists()


def test_train_on_a_union_structure_exits_with_data_error(files, tmp_path, capsys):
    # the fixture's train-mode file holds 2u, an evaluation-only structure
    out = tmp_path / "m.ckpt"
    code = cli.main(["train", "--kg", str(files / "kg"), "--queries", str(files / "q.jsonl"),
                     "--out", str(out), "--steps", "1", "--checkpoint-every", "1",
                     "--batch-size", "4", "--negatives", "4", "--d", "16", "--h", "16"])
    assert code == cli.EXIT_DATA
    assert capsys.readouterr().err == \
        "error: structures ['2u'] are evaluation-only and cannot be trained on\n"
    assert list(tmp_path.iterdir()) == []


def test_refused_allocation_exits_with_data_error(files, tmp_path, monkeypatch, capsys):
    """``--h 1000000000`` asks numpy for 715 GiB, which it refuses with a
    MemoryError; the test raises that error in place of the allocation, so
    it allocates nothing large."""
    queries = tmp_path / "train.jsonl"
    assert cli.main(["gen-queries", "--kg", str(files / "kg"), "--mode", "train",
                     "--per-structure", "2", "--structures", "1p,2i",
                     "--out", str(queries)]) == cli.EXIT_OK
    capsys.readouterr()
    message = ("Unable to allocate 715. GiB for an array with shape (96, 1000000000) "
               "and data type float64")
    asked = []

    def refuse(cls, config, seed):
        asked.append(config.h)
        raise MemoryError(message)

    monkeypatch.setattr(ModelParams, "initialize", classmethod(refuse))
    out = tmp_path / "m.ckpt"
    code = cli.main(["train", "--kg", str(files / "kg"), "--queries", str(queries),
                     "--out", str(out), "--h", "1000000000", "--negatives", "4",
                     "--steps", "1", "--checkpoint-every", "1",
                     "--log", str(tmp_path / "log.csv")])
    assert code == cli.EXIT_DATA
    assert asked == [1000000000]
    assert capsys.readouterr().err == f"error: out of memory: {message}\n"
    assert [p.name for p in tmp_path.iterdir()] == ["train.jsonl"]


def test_refused_allocation_without_a_message_exits_with_data_error(files, tmp_path,
                                                                    monkeypatch, capsys):
    def refuse(params):
        raise MemoryError

    monkeypatch.setattr(model, "realize_all_entities", refuse)
    out = tmp_path / "metrics.csv"
    code = cli.main(["eval", "--kg", str(files / "kg"), "--ckpt", str(files / "model.ckpt"),
                     "--queries", str(files / "q.jsonl"), "--out", str(out)])
    assert code == cli.EXIT_DATA
    assert capsys.readouterr().err == "error: out of memory: allocation refused\n"
    assert not out.exists()
