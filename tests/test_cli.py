import json

import numpy as np
import pytest

from skqe import cli, evaluation, kg, oracle
from skqe.model import ModelConfig, ModelParams


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    assert cli.main(["gen-kg", "--entities", "30", "--relations", "3",
                     "--out", str(root / "kg")]) == cli.EXIT_OK
    assert cli.main(["gen-queries", "--kg", str(root / "kg"), "--mode", "entailment",
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


@pytest.mark.parametrize("command,flag,value", [
    ("eval", "--workers", "0"), ("eval", "--workers", "-3"),
    ("fit-cardinality", "--epochs", "0"), ("fit-cardinality", "--epochs", "-2"),
    ("train", "--steps", "0"), ("train", "--batch-size", "0"), ("train", "--workers", "0"),
    ("train", "--log-every", "0"), ("train", "--negatives", "-1"),
])
def test_counts_below_one_are_usage_errors(files, command, flag, value, tmp_path, capsys):
    # a count in a train --config file is checked by TrainConfig instead (exit 2)
    ckpt = [] if command == "train" else ["--ckpt", str(files / "model.ckpt")]
    with pytest.raises(SystemExit) as exit_info:
        cli.main([command, "--kg", str(files / "kg"), *ckpt,
                  "--queries", str(files / "q.jsonl"), flag, value,
                  "--out", str(tmp_path / "out")])
    assert exit_info.value.code == cli.EXIT_USAGE
    assert f"{flag}: must be at least 1, got {value}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("degree", ["nan", "inf", "-1", "0"])
def test_gen_kg_bad_degree_exits_with_data_error(degree, tmp_path, capsys):
    code = cli.main(["gen-kg", "--entities", "30", "--relations", "3",
                     f"--avg-degree={degree}", "--out", str(tmp_path / "kg")])
    assert code == cli.EXIT_DATA
    assert capsys.readouterr().err.startswith(
        "error: average out-degree must be finite and positive, got ")
    assert not (tmp_path / "kg").exists()


@pytest.mark.parametrize("command", ["gen-kg", "gen-queries", "train"])
def test_negative_seed_exits_with_data_error(files, command, tmp_path, capsys):
    # numpy's generators reject negative seeds with a ValueError traceback
    out = tmp_path / "out"
    inputs = {
        "gen-kg": ["--entities", "30", "--relations", "3"],
        "gen-queries": ["--kg", str(files / "kg"), "--mode", "entailment",
                        "--per-structure", "2"],
        "train": ["--kg", str(files / "kg"), "--queries", str(files / "q.jsonl"),
                  "--steps", "1"],
    }[command]
    code = cli.main([command, *inputs, "--seed", "-5", "--out", str(out)])
    assert code == cli.EXIT_DATA
    assert capsys.readouterr().err == "error: seed must be non-negative, got -5\n"
    assert not out.exists()


def test_negative_seed_in_a_train_config_file_exits_with_data_error(files, tmp_path, capsys):
    config = tmp_path / "train.cfg"
    config.write_text("seed = -5\n")
    code = cli.main(["train", "--kg", str(files / "kg"), "--queries", str(files / "q.jsonl"),
                     "--config", str(config), "--out", str(tmp_path / "out")])
    assert code == cli.EXIT_DATA
    assert "seed must be non-negative, got -5" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_answer_topk_one_prints_one_entity(files, capsys):
    assert cli.main(["answer", "--kg", str(files / "kg"), "--ckpt", str(files / "model.ckpt"),
                     "--query", "EXISTS T . r0(e0,T)", "--topk", "1"]) == cli.EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    assert len([line for line in lines if not line.startswith("#")]) == 1


@pytest.mark.parametrize("command", ["eval", "eval-cardinality"])
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
    assert lines[1:] == [f"near ties rescored exactly: {report.rescored} entities",
                         f"metrics written to {out}"]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("command", ["eval", "answer", "correlate", "fit-cardinality",
                                     "eval-cardinality"])
def test_overflowing_checkpoint_exits_with_numeric_error(files, command, tmp_path, capsys):
    # finite weights whose Skolem layer overflows to inf, then to NaN
    ckpt = _checkpoint(files, tmp_path / "huge.ckpt", "F1", 1e308)
    extra = (["--query", "EXISTS T . r0(e0,T)"] if command == "answer" else
             ["--queries", str(files / "q.jsonl"), "--out", str(tmp_path / "out")])
    assert cli.main([command, "--kg", str(files / "kg"), "--ckpt", ckpt, *extra]) == \
        cli.EXIT_NUMERIC
    captured = capsys.readouterr()
    # every command meets the file's first record (1p) or the 1p --query first,
    # except eval-cardinality, which embeds only the hash-test half
    first = "1p"
    if command == "eval-cardinality":
        dataset = oracle.read_dataset(files / "q.jsonl", kg.load_tsv_dir(files / "kg"))
        first = dataset.samples[evaluation.split_by_hash(dataset)[1][0]].instance.structure
    assert captured.err == f"numeric failure: {first}: non-finite query embedding\n"
    assert "nan" not in captured.out
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("statistic", ["entropy", "width"])
def test_correlate_writes_correlations_and_plot_data(files, statistic, tmp_path):
    assert cli.main(["correlate", "--kg", str(files / "kg"), "--ckpt", str(files / "model.ckpt"),
                     "--queries", str(files / "q.jsonl"), "--statistic", statistic,
                     "--out", str(tmp_path / "corr.csv"),
                     "--emit-plot-data", str(tmp_path / "plot.csv")]) == cli.EXIT_OK
    corr = (tmp_path / "corr.csv").read_text().splitlines()
    assert corr[0] == "structure,metric,value,count"
    assert {line.split(",")[0] for line in corr[1:]} == {"1p", "2i", "2u", "avg"}
    plot = [line.split(",") for line in (tmp_path / "plot.csv").read_text().splitlines()]
    assert plot[0] == ["structure", "answer_size", "statistic"]
    dataset = oracle.read_dataset(str(files / "q.jsonl"), kg.load_tsv_dir(str(files / "kg")))
    values, sizes, structures = evaluation.query_statistics(
        dataset, ModelParams.load(files / "model.ckpt"), statistic)
    grouped = [s for group in dataset.by_structure().values() for s in group]
    assert len(plot) == 1 + len(grouped)
    for row, sample, value, size, structure in zip(plot[1:], grouped, values, sizes, structures):
        assert row[0] == structure == sample.instance.structure
        assert int(row[1]) == size == len(sample.answers)
        assert row[2] == f"{value:.6f}"


@pytest.mark.parametrize("command", ["correlate", "fit-cardinality", "eval-cardinality"])
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


def test_fit_cardinality_writes_a_checkpoint(files, tmp_path):
    out = tmp_path / "card.ckpt"
    assert cli.main(["fit-cardinality", "--kg", str(files / "kg"),
                     "--ckpt", str(files / "model.ckpt"), "--queries", str(files / "q.jsonl"),
                     "--epochs", "3", "--out", str(out)]) == cli.EXIT_OK
    fitted = ModelParams.load(out)
    assert fitted.extra["cardinality_fit"]["epochs"] == 3
    assert fitted.extra["cardinality_fit"]["train_count"] >= 1


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
    code = cli.main(["gen-queries", "--kg", str(files / "kg"), "--mode", "entailment",
                     "--per-structure", "5", *extra, "--out", str(out)])
    assert code == cli.EXIT_DATA
    assert capsys.readouterr().err.startswith("error:")
    assert not out.exists()


def test_gen_queries_names_each_shortfall_with_its_attempts(files, tmp_path, capsys):
    # 30 entities and 3 relations hold fewer than 100 distinct 1p queries;
    # 2in asks for round(100 * 0.05) = 5 and gets them
    out = tmp_path / "q.jsonl"
    code = cli.main(["gen-queries", "--kg", str(files / "kg"), "--mode", "entailment",
                     "--per-structure", "100", "--structures", "1p,2in",
                     "--negation-frac", "0.05", "--out", str(out)])
    assert code == cli.EXIT_OK
    meta = oracle.read_dataset(out, kg.load_tsv_dir(files / "kg")).metadata
    got = meta["counts"]["1p"]
    assert got < 100 and meta["counts"]["2in"] == 5
    assert meta["attempts"]["1p"] == 100 * oracle.RETRY_FACTOR
    assert capsys.readouterr().out.splitlines()[-1] == \
        f"short of the request: 1p {got}/100 after 10,000 attempts"


@pytest.mark.parametrize("record, message", [
    ("3", "expected a JSON object, got int"),
    ('{"structure": "1p", "anchors": "e1", "relations": ["r0"]}',
     "query record field 'anchors' must be a list of names"),
], ids=["int-line", "anchors-string"])
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
