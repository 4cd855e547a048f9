import numpy as np
import pytest

from skqe import cli, kg, oracle
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


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_overflowing_checkpoint_eval_exits_with_numeric_error(files, tmp_path, capsys):
    # finite weights whose Skolem layer overflows to inf, then to NaN
    ckpt = _checkpoint(files, tmp_path / "huge.ckpt", "F1", 1e308)
    assert cli.main(["eval", "--kg", str(files / "kg"), "--ckpt", ckpt,
                     "--queries", str(files / "q.jsonl"),
                     "--out", str(tmp_path / "metrics.csv")]) == cli.EXIT_NUMERIC
    assert "numeric failure: 1p: non-finite query embedding" in capsys.readouterr().err
    assert not (tmp_path / "metrics.csv").exists()


def test_correlate_writes_correlations_and_plot_data(files, tmp_path):
    assert cli.main(["correlate", "--kg", str(files / "kg"), "--ckpt", str(files / "model.ckpt"),
                     "--queries", str(files / "q.jsonl"), "--out", str(tmp_path / "corr.csv"),
                     "--emit-plot-data", str(tmp_path / "plot.csv")]) == cli.EXIT_OK
    corr = (tmp_path / "corr.csv").read_text().splitlines()
    assert corr[0] == "structure,metric,value,count"
    assert {line.split(",")[0] for line in corr[1:]} == {"1p", "2i", "2u", "avg"}
    plot = (tmp_path / "plot.csv").read_text().splitlines()
    assert plot[0] == "structure,answer_size,statistic"
    dataset = oracle.read_dataset(str(files / "q.jsonl"), kg.load_tsv_dir(str(files / "kg")))
    assert len(plot) == 1 + len(dataset.samples)


def test_fit_cardinality_writes_a_checkpoint(files, tmp_path):
    out = tmp_path / "card.ckpt"
    assert cli.main(["fit-cardinality", "--kg", str(files / "kg"),
                     "--ckpt", str(files / "model.ckpt"), "--queries", str(files / "q.jsonl"),
                     "--epochs", "3", "--out", str(out)]) == cli.EXIT_OK
    fitted = ModelParams.load(out)
    assert fitted.extra["cardinality_fit"]["epochs"] == 3
    assert fitted.extra["cardinality_fit"]["train_count"] >= 1
