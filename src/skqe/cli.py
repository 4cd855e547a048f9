"""Command-line entry point: generate data, train, evaluate, and answer queries.

Each ``train`` setting has one flag, whose dest is its ``TrainConfig`` field;
an unset flag keeps the default. ``filter_negatives`` and ``union`` have no
flag: a training query has one branch. ``correlate`` reports both the entropy
and the width statistic from one pass (``evaluation.query_statistics``). A
refused allocation is a data error; a numeric failure prints one line, with
numpy's floating-point warnings silenced.
"""

from __future__ import annotations

import argparse
import dataclasses
import logging
import sys
import time
from pathlib import Path

import numpy as np

from . import algebra, evaluation, logic, model as model_mod, oracle as oracle_mod
from .errors import DataError, NumericError, QueryParseError, SkqeError, UnsupportedQueryError
from .kg import SPLITS, build_index, generate_synthetic, load_tsv_dir, write_tsv
from .model import ModelParams
from .oracle import QueryDataset, read_dataset, requested_count, sample_dataset, write_dataset
from .training import TrainConfig, train, write_train_log

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


def _name_list(text: str) -> tuple[str, ...]:
    names = tuple(text.split(","))
    if "" in names:
        raise argparse.ArgumentTypeError(f"empty name in {text!r}")
    return names


def _load_checkpoint(path: str, graph) -> ModelParams:
    params = ModelParams.load(path)
    stored = params.extra.get("graph_hash")
    if stored and stored != graph.content_hash():
        raise DataError(
            f"checkpoint {path} was trained on a different graph "
            f"(hash {str(stored)[:12]}… vs {graph.content_hash()[:12]}…)"
        )
    if params.config.num_entities != graph.num_entities:
        raise DataError("checkpoint entity count does not match the graph")
    if params.config.num_relations != graph.num_relations:
        raise DataError("checkpoint relation count does not match the graph")
    return params


def _load_inputs(args) -> tuple[ModelParams, QueryDataset]:
    """The checkpoint and query dataset named by ``--ckpt`` and ``--queries``,
    both checked against the graph in ``--kg``."""
    graph = load_tsv_dir(args.kg)
    return _load_checkpoint(args.ckpt, graph), read_dataset(args.queries, graph)


def build_train_config(args) -> TrainConfig:
    """The ``TrainConfig`` that ``train``'s flags set."""
    return TrainConfig(**{f.name: getattr(args, f.name) for f in dataclasses.fields(TrainConfig)
                          if getattr(args, f.name, None) is not None})


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
    graph = load_tsv_dir(args.kg)
    # train mode leaves out the evaluation-only structures, which train refuses
    default = algebra.TRAIN_STRUCTURES if args.mode == "train" else algebra.STRUCTURE_NAMES
    structures = args.structures or default
    unknown = [s for s in structures if s not in algebra.TEMPLATES]
    if unknown:
        raise DataError(f"unknown structures: {unknown}")
    began = time.perf_counter()
    dataset = sample_dataset(graph, structures, args.per_structure, args.seed,
                             args.mode, args.negation_frac)
    seconds = time.perf_counter() - began
    counts, attempts = dataset.metadata["counts"], dataset.metadata["attempts"]
    if not dataset.samples:  # no command reads a dataset without queries
        raise DataError(f"sampled no {args.mode} query in {sum(attempts.values()):,} attempts "
                        f"over {len(structures)} structures; wrote no dataset")
    write_dataset(dataset, graph, args.out)
    print(f"wrote {len(dataset.samples)} queries ({args.mode}) to {args.out}")
    print(f"sampling took {seconds:.3f} s: {len(dataset.samples) / seconds:.1f} queries/s")
    print("yield (queries/attempts): "
          + ", ".join(f"{s} {counts[s]}/{attempts[s]:,}" for s in structures))
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
    graph = load_tsv_dir(args.kg)
    config = build_train_config(args)
    dataset = read_dataset(args.queries, graph)
    params, records = train(graph, dataset, config,
                            on_checkpoint=lambda step, p: p.save(f"{args.out}.step{step}"))
    params.save(args.out)
    if args.log:
        write_train_log(records, args.log)
    final = records[-1]
    print(f"trained {config.steps} steps: loss {final.loss:.4f}, "
          f"pos score {final.pos_score:.4f}, neg score {final.neg_score:.4f}")
    print(f"checkpoint written to {args.out}")
    return EXIT_OK


def cmd_eval(args) -> int:
    params, dataset = _load_inputs(args)
    began = time.perf_counter()
    report = evaluation.evaluate_ranking(dataset, params, args.union)
    seconds = time.perf_counter() - began
    evaluation.write_metric_csv(report.to_rows(), args.out)
    avg = report.average()
    answers = sum(len(ranks) for ranks in report.ranks.values())
    print(f"evaluated {answers} answers over {len(report.ranks)} structures: "
          f"MRR {avg.mrr:.4f}, Hits@3 {avg.hits3:.4f}")
    print(f"near ties rescored exactly: {report.rescored} entities")
    print(f"ranking took {seconds:.3f} s: {answers / seconds:.1f} answers/s")
    print(f"metrics written to {args.out}")
    return EXIT_OK


def cmd_correlate(args) -> int:
    params, dataset = _load_inputs(args)
    records = evaluation.query_statistics(dataset, params)
    reports = [evaluation.uncertainty_correlation(records, s) for s in evaluation.STATISTICS]
    evaluation.write_metric_csv([row for r in reports for row in r.to_rows()], args.out)
    for report in reports:
        sp, pe = report.average()
        print(f"{report.statistic}: Spearman {sp:.4f}, Pearson {pe:.4f} "
              f"averaged over {len(report.per_structure)} structures")
    if args.emit_plot_data:
        evaluation.write_plot_data(records, args.emit_plot_data)
        print(f"plot data written to {args.emit_plot_data}")
    print(f"correlations written to {args.out}")
    return EXIT_OK


def _describe_node(node, instance, graph) -> str:
    if isinstance(node, algebra.Anchor):
        return f"anchor {graph.entities.name_of(instance.anchors[node.slot])}"
    if isinstance(node, algebra.Relate):
        return f"relation {graph.relations.name_of(instance.relations[node.slot])}"
    if isinstance(node, algebra.Conjoin):
        return "intersection"
    return "union"


def cmd_answer(args) -> int:
    graph = load_tsv_dir(args.kg)
    params = _load_checkpoint(args.ckpt, graph)
    instance = algebra.parse_fol(args.query, graph)
    entity_matrix = model_mod.realize_all_entities(params)
    collected: list = []
    branches = model_mod.ForwardContext(params, entities=entity_matrix).embed_instances(
        instance.structure, [instance.anchors], [instance.relations], args.union,
        collect=collected)
    qe = model_mod.QueryEmbedding(tuple(b[0] for b in branches))
    scores = model_mod.score_entities(qe, params, entity_matrix)
    top = np.argsort(-scores, kind="stable")[: args.topk]
    for entity in top:
        print(f"{graph.entities.name_of(int(entity))}\t{scores[entity]:.6f}")

    def nearest(value) -> str:
        node_scores = model_mod.score_entities(
            model_mod.QueryEmbedding((value,)), params, entity_matrix)
        top3 = np.argsort(-node_scores, kind="stable")[:3]
        return ", ".join(f"{graph.entities.name_of(int(e))} ({node_scores[e]:.3f})" for e in top3)

    for branch_no, (branch_plan, values) in enumerate(collected, start=1):
        print(f"# branch {branch_no} intermediates "
              f"({instance.structure}, nearest entities by satisfiability):")
        negated = {i for node in branch_plan.nodes if isinstance(node, algebra.Conjoin)
                   for i in node.negated}
        for idx, (node, value) in enumerate(zip(branch_plan.nodes, values)):
            print(f"#   {_describe_node(node, instance, graph)}: {nearest(value[0])}")
            if idx in negated:  # the complement its conjunction reads
                print(f"#   negation: {nearest(logic.negate_slots(value[0], params.config.mode))}")
    return EXIT_OK


def cmd_oracle(args) -> int:
    graph = load_tsv_dir(args.kg)
    splits = args.splits or SPLITS
    instance = algebra.parse_fol(args.query, graph)
    index = build_index(graph, splits)
    answers = oracle_mod.eval_plan(algebra.structure_plan(instance.structure),
                                   np.array(instance.anchors, dtype=np.int64)[:, None],
                                   np.array(instance.relations, dtype=np.int64)[:, None], index)
    names = sorted(graph.entities.name_of(e) for e in answers.tolist())  # one column: entities
    print("{" + ", ".join(names) + "}")
    return EXIT_OK


def make_parser() -> _Parser:
    parser = _Parser(prog="skqe", description=__doc__.split("\n", 1)[0])
    sub = parser.add_subparsers(dest="command", required=True)
    inputs = argparse.ArgumentParser(add_help=False)  # the flags of _load_inputs
    inputs.add_argument("--kg", required=True)
    inputs.add_argument("--ckpt", required=True)
    inputs.add_argument("--queries", required=True)

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
    p.add_argument("--structures", type=_name_list, help="comma-separated subset (default: "
                   "the ten union-free structures train takes in train mode, all 14 in "
                   "every other mode: generalization, valid and test)")
    p.add_argument("--negation-frac", type=float, default=1.0,
                   help="sampling fraction for negation structures (0.1 matches the upstream ratio)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_gen_queries)

    p = sub.add_parser("train", help="train a model on a query dataset")
    p.add_argument("--kg", required=True)
    p.add_argument("--queries", required=True)
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
    p.add_argument("--tnorm", dest="kind", choices=logic.TNORM_KINDS)
    p.add_argument("--mode", choices=model_mod.MODES)
    p.add_argument("--log-every", type=_positive_int)
    p.add_argument("--checkpoint-every", type=int)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="ranking metrics on a query dataset", parents=[inputs])
    p.add_argument("--union", choices=algebra.UNION_MODES, default="dnf")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("correlate", help="entropy and width vs answer size, per structure",
                       parents=[inputs])
    p.add_argument("--emit-plot-data", help="also write each query's size, entropy and width")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_correlate)

    p = sub.add_parser("answer", help="answer an ad-hoc query with the model")
    p.add_argument("--kg", required=True)
    p.add_argument("--ckpt", required=True)
    p.add_argument("--query", required=True)
    p.add_argument("--topk", type=_positive_int, default=10)
    p.add_argument("--union", choices=algebra.UNION_MODES, default="dnf")
    p.set_defaults(func=cmd_answer)

    p = sub.add_parser("oracle", help="exact answer set of a query (no model)")
    p.add_argument("--kg", required=True)
    p.add_argument("--query", required=True)
    p.add_argument("--splits", type=_name_list,
                   help="comma-separated split subset (default: all)")
    p.set_defaults(func=cmd_oracle)

    return parser


def main(argv=None) -> int:
    logging.basicConfig(level=logging.WARNING, format="%(levelname)s %(message)s")
    parser = make_parser()
    args = parser.parse_args(argv)
    try:
        with np.errstate(all="ignore"):  # a non-finite result is reported once, below
            return args.func(args)
    except (QueryParseError, UnsupportedQueryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (SkqeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except MemoryError as exc:  # numpy refuses an array larger than memory, e.g. a huge --h
        print(f"error: out of memory: {str(exc) or 'allocation refused'}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
