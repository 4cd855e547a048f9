import pytest

from skqe import cli, kg, oracle
from skqe.model import ModelConfig, ModelParams


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    assert cli.main(["gen-kg", "--entities", "30", "--relations", "3",
                     "--out", str(root / "kg")]) == cli.EXIT_OK
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
