"""Command-line entry point: generate data, train, evaluate, and answer queries."""

from __future__ import annotations

import argparse
import dataclasses
import logging
import sys
from pathlib import Path

import numpy as np

from . import algebra, evaluation, model as model_mod, oracle as oracle_mod
from .errors import DataError, NumericError, QueryParseError, SkqeError, UnsupportedQueryError
from .kg import SPLITS, build_index, generate_synthetic, load_tsv_dir, write_tsv
from .model import ModelParams
from .oracle import read_dataset, requested_count, sample_dataset, write_dataset
from .training import TrainConfig, train, train_cardinality_head, write_train_log

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _load_graph(kg_dir: str):
    return load_tsv_dir(kg_dir)


def _load_checkpoint(path: str, graph) -> ModelParams:
    params = ModelParams.load(path)
    stored = params.extra.get("graph_hash")
    if stored and stored != graph.content_hash():
        raise DataError(
            f"checkpoint {path} was trained on a different graph "
            f"(hash {stored[:12]}… vs {graph.content_hash()[:12]}…)"
        )
    if params.config.num_entities != graph.num_entities:
        raise DataError("checkpoint entity count does not match the graph")
    if params.config.num_relations != graph.num_relations:
        raise DataError("checkpoint relation count does not match the graph")
    return params


def _parse_config_file(path: str) -> dict[str, tuple[str, str]]:
    """key -> (value, "path:line") of a flat ``key = value`` file."""
    values: dict[str, tuple[str, str]] = {}
    with open(path, encoding="utf-8") as handle:
        for line_no, raw in enumerate(handle, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise DataError(f"{path}:{line_no}: expected 'key = value'")
            key, value = (part.strip() for part in line.split("=", 1))
            values[key] = (value, f"{path}:{line_no}")
    return values


def _coerce(field: dataclasses.Field, text: str, where: str):
    kind = getattr(field.type, "__name__", field.type)
    if kind in ("int", "float"):
        try:
            return int(text) if kind == "int" else float(text)
        except ValueError:
            raise DataError(f"{where}: cannot parse {kind} from {text!r} "
                            f"for {field.name!r}") from None
    if kind == "bool":
        lowered = text.lower()
        if lowered in ("1", "true", "on", "yes"):
            return True
        if lowered in ("0", "false", "off", "no"):
            return False
        raise DataError(f"{where}: cannot parse boolean from {text!r} for {field.name!r}")
    return text


def build_train_config(args) -> TrainConfig:
    values = {f.name: f.default for f in dataclasses.fields(TrainConfig)}
    fields = {f.name: f for f in dataclasses.fields(TrainConfig)}
    if args.config:
        for key, (text, where) in _parse_config_file(args.config).items():
            if key not in fields:
                raise DataError(f"{where}: unknown config key {key!r}")
            values[key] = _coerce(fields[key], text, where)
    overrides = {
        "d": args.d, "h": args.h, "gamma": args.gamma, "negatives": args.negatives,
        "batch_size": args.batch_size, "steps": args.steps, "lr": args.lr,
        "seed": args.seed, "kind": args.tnorm, "mode": args.mode,
        "union": args.union, "log_every": args.log_every,
        "checkpoint_every": args.checkpoint_every,
    }
    if args.attention is not None:
        overrides["attention"] = args.attention == "on"
    for key, value in overrides.items():
        if value is not None:
            values[key] = value
    return TrainConfig(**values)


def cmd_gen_kg(args) -> int:
    graph = generate_synthetic(args.entities, args.relations, args.avg_degree,
                               args.valid_frac, args.test_frac, args.seed)
    paths = write_tsv(graph, args.out)
    counts = graph.split_counts()
    print(f"wrote {sum(counts.values())} triples "
          f"(train {counts['train']}, valid {counts['valid']}, test {counts['test']}) "
          f"to {Path(args.out)}")
    for path in paths.values():
        logging.debug("wrote %s", path)
    return EXIT_OK


def cmd_gen_queries(args) -> int:
    graph = _load_graph(args.kg)
    structures = tuple(args.structures.split(",")) if args.structures else algebra.STRUCTURE_NAMES
    unknown = [s for s in structures if s not in algebra.TEMPLATES]
    if unknown:
        raise DataError(f"unknown structures: {unknown}")
    dataset = sample_dataset(graph, structures, args.per_structure, args.seed,
                             args.mode, args.negation_frac)
    write_dataset(dataset, graph, args.out)
    print(f"wrote {len(dataset.samples)} queries ({args.mode}) to {args.out}")
    counts, attempts = dataset.metadata["counts"], dataset.metadata["attempts"]
    short = []
    for structure in structures:
        wanted = requested_count(structure, args.per_structure, args.negation_frac)
        if counts[structure] < wanted:
            short.append(f"{structure} {counts[structure]}/{wanted} "
                         f"after {attempts[structure]:,} attempts")
    if short:
        print(f"short of the request: {', '.join(short)}")
    return EXIT_OK


def cmd_train(args) -> int:
    graph = _load_graph(args.kg)
    config = build_train_config(args)
    dataset = read_dataset(args.queries, graph)

    def on_checkpoint(step, params):
        params.save(f"{args.out}.step{step}")

    params, records = train(graph, dataset, config,
                            on_checkpoint=on_checkpoint if config.checkpoint_every else None)
    params.save(args.out)
    if args.log:
        write_train_log(records, args.log)
    final = records[-1]
    print(f"trained {config.steps} steps: loss {final.loss:.4f}, "
          f"pos score {final.pos_score:.4f}, neg score {final.neg_score:.4f}")
    print(f"checkpoint written to {args.out}")
    return EXIT_OK


def cmd_eval(args) -> int:
    graph = _load_graph(args.kg)
    params = _load_checkpoint(args.ckpt, graph)
    dataset = read_dataset(args.queries, graph)
    report = evaluation.evaluate_ranking(dataset, params, args.union)
    evaluation.write_metric_csv(report.to_rows(), args.out)
    avg = report.average()
    print(f"evaluated {sum(report.counts.values())} answers over "
          f"{len(report.per_structure)} structures: "
          f"MRR {avg.mrr:.4f}, Hits@3 {avg.hits3:.4f}")
    print(f"near ties rescored exactly: {report.rescored} entities")
    print(f"metrics written to {args.out}")
    return EXIT_OK


def cmd_correlate(args) -> int:
    graph = _load_graph(args.kg)
    params = _load_checkpoint(args.ckpt, graph)
    dataset = read_dataset(args.queries, graph)
    report = evaluation.uncertainty_correlation(dataset, params, args.statistic)
    evaluation.write_metric_csv(report.to_rows(), args.out)
    sp, pe = report.average()
    print(f"{args.statistic}: Spearman {sp:.4f}, Pearson {pe:.4f} "
          f"averaged over {len(report.per_structure)} structures")
    if args.emit_plot_data:
        evaluation.write_plot_data(dataset, params, args.statistic, args.emit_plot_data)
        print(f"plot data written to {args.emit_plot_data}")
    print(f"correlations written to {args.out}")
    return EXIT_OK


def cmd_fit_cardinality(args) -> int:
    graph = _load_graph(args.kg)
    params = _load_checkpoint(args.ckpt, graph)
    dataset = read_dataset(args.queries, graph)
    fitted, report = train_cardinality_head(params, dataset, args.epochs, args.lr)
    fitted.extra["cardinality_fit"] = report
    fitted.save(args.out)
    print(f"fit cardinality head on {report['train_count']} queries "
          f"({report['epochs']} epochs): train MAE {100 * report['train_mae']:.1f}%, "
          f"test MAE {100 * report['test_mae']:.1f}%")
    print(f"checkpoint written to {args.out}")
    return EXIT_OK


def cmd_eval_cardinality(args) -> int:
    graph = _load_graph(args.kg)
    params = _load_checkpoint(args.ckpt, graph)
    dataset = read_dataset(args.queries, graph)
    result = evaluation.cardinality_test_half(dataset, params)
    rows = [(s, "cardinality_mae_pct", mae, count)
            for s, (mae, count) in sorted(result["per_structure"].items())]
    rows.append(("all", "cardinality_mae_pct", result["test_mae"], result["test_count"]))
    rows.append(("all", "baseline_mae_pct", result["baseline_mae"], result["test_count"]))
    evaluation.write_metric_csv(rows, args.out)
    print(f"test-half MAE {result['test_mae']:.1f}% "
          f"(constant-mean baseline {result['baseline_mae']:.1f}%)")
    print(f"metrics written to {args.out}")
    return EXIT_OK


def _describe_node(node, instance, graph) -> str:
    if isinstance(node, algebra.Anchor):
        return f"anchor {graph.entities.name_of(instance.anchors[node.slot])}"
    if isinstance(node, algebra.Relate):
        return f"relation {graph.relations.name_of(instance.relations[node.slot])}"
    if isinstance(node, algebra.Negate):
        return "negation"
    if isinstance(node, algebra.Conjoin):
        return "intersection"
    return "union"


def cmd_answer(args) -> int:
    graph = _load_graph(args.kg)
    params = _load_checkpoint(args.ckpt, graph)
    instance = algebra.parse_fol(args.query, graph)
    collected: list = []
    branches = model_mod.ForwardContext(params).embed_instances(
        instance.structure, [instance.anchors], [instance.relations], args.union,
        collect=collected)
    qe = model_mod.QueryEmbedding(tuple(b[0] for b in branches))
    entity_matrix = model_mod.realize_all_entities(params)
    scores = model_mod.score_entities(qe, params, entity_matrix)
    top = np.argsort(-scores, kind="stable")[: args.topk]
    for entity in top:
        print(f"{graph.entities.name_of(int(entity))}\t{scores[entity]:.6f}")
    for branch_no, (branch_plan, memo) in enumerate(collected, start=1):
        print(f"# branch {branch_no} intermediates "
              f"({instance.structure}, nearest entities by satisfiability):")
        for node_id, value in memo.items():
            node_scores = model_mod.score_entities(
                model_mod.QueryEmbedding((value[0],)), params, entity_matrix)
            nearest = np.argsort(-node_scores, kind="stable")[:3]
            names = ", ".join(
                f"{graph.entities.name_of(int(e))} ({node_scores[e]:.3f})" for e in nearest
            )
            print(f"#   {_describe_node(branch_plan.nodes[node_id], instance, graph)}: {names}")
    return EXIT_OK


def cmd_oracle(args) -> int:
    graph = _load_graph(args.kg)
    splits = tuple(args.splits.split(",")) if args.splits else SPLITS
    instance = algebra.parse_fol(args.query, graph)
    index = build_index(graph, splits)
    answers = oracle_mod.eval_plan(algebra.structure_plan(instance.structure),
                                   instance.anchors, instance.relations, index)
    names = sorted(graph.entities.name_of(e) for e in answers)
    print("{" + ", ".join(names) + "}")
    return EXIT_OK


def make_parser() -> _Parser:
    parser = _Parser(prog="skqe", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-kg", help="generate a synthetic knowledge graph")
    p.add_argument("--entities", type=int, required=True)
    p.add_argument("--relations", type=int, required=True)
    p.add_argument("--avg-degree", type=float, default=4.0)
    p.add_argument("--valid-frac", type=float, default=0.1)
    p.add_argument("--test-frac", type=float, default=0.1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_gen_kg)

    p = sub.add_parser("gen-queries", help="sample a query dataset via the oracle")
    p.add_argument("--kg", required=True)
    p.add_argument("--mode", choices=oracle_mod.DATASET_MODES, required=True)
    p.add_argument("--per-structure", type=_positive_int, required=True)
    p.add_argument("--structures", help="comma-separated subset (default: all 14)")
    p.add_argument("--negation-frac", type=float, default=1.0,
                   help="sampling fraction for negation structures (0.1 matches the upstream ratio)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_gen_queries)

    p = sub.add_parser("train", help="train a model on a query dataset")
    p.add_argument("--kg", required=True)
    p.add_argument("--queries", required=True)
    p.add_argument("--config", help="flat key = value settings file")
    p.add_argument("--out", required=True)
    p.add_argument("--log", help="write the training log CSV here")
    p.add_argument("--d", type=int)
    p.add_argument("--h", type=int)
    p.add_argument("--gamma", type=float)
    p.add_argument("--negatives", type=_positive_int)
    p.add_argument("--batch-size", type=_positive_int)
    p.add_argument("--steps", type=_positive_int)
    p.add_argument("--lr", type=float)
    p.add_argument("--seed", type=int)
    p.add_argument("--tnorm", choices=("min", "prod", "luk"))
    p.add_argument("--attention", choices=("on", "off"))
    p.add_argument("--mode", choices=("bounds", "point"))
    p.add_argument("--union", choices=("dnf", "dm"))
    p.add_argument("--log-every", type=_positive_int)
    p.add_argument("--checkpoint-every", type=int)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="ranking metrics on a query dataset")
    p.add_argument("--kg", required=True)
    p.add_argument("--ckpt", required=True)
    p.add_argument("--queries", required=True)
    p.add_argument("--union", choices=("dnf", "dm"), default="dnf")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("correlate", help="uncertainty statistic vs answer size")
    p.add_argument("--kg", required=True)
    p.add_argument("--ckpt", required=True)
    p.add_argument("--queries", required=True)
    p.add_argument("--statistic", choices=("entropy", "width"), default="entropy")
    p.add_argument("--emit-plot-data", help="also write per-query (size, statistic) pairs")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_correlate)

    p = sub.add_parser("fit-cardinality", help="fit the answer-size head")
    p.add_argument("--kg", required=True)
    p.add_argument("--ckpt", required=True)
    p.add_argument("--queries", required=True)
    p.add_argument("--epochs", type=_positive_int, default=250)
    p.add_argument("--lr", type=float, default=1e-4)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_fit_cardinality)

    p = sub.add_parser("eval-cardinality", help="answer-size error on the held-out half")
    p.add_argument("--kg", required=True)
    p.add_argument("--ckpt", required=True)
    p.add_argument("--queries", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_eval_cardinality)

    p = sub.add_parser("answer", help="answer an ad-hoc query with the model")
    p.add_argument("--kg", required=True)
    p.add_argument("--ckpt", required=True)
    p.add_argument("--query", required=True)
    p.add_argument("--topk", type=_positive_int, default=10)
    p.add_argument("--union", choices=("dnf", "dm"), default="dnf")
    p.set_defaults(func=cmd_answer)

    p = sub.add_parser("oracle", help="exact answer set of a query (no model)")
    p.add_argument("--kg", required=True)
    p.add_argument("--query", required=True)
    p.add_argument("--splits", help="comma-separated split subset (default: all)")
    p.set_defaults(func=cmd_oracle)

    return parser


def main(argv=None) -> int:
    logging.basicConfig(level=logging.WARNING, format="%(levelname)s %(message)s")
    parser = make_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (QueryParseError, UnsupportedQueryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (DataError, SkqeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
