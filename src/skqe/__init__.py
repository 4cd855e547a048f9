"""Skolem set-logic query embeddings over incomplete knowledge graphs."""

from .algebra import (
    EPFO_STRUCTURES,
    NEGATION_STRUCTURES,
    STRUCTURE_NAMES,
    TRAIN_STRUCTURES,
    QueryInstance,
    QueryPlan,
    compile_instance,
    parse_fol,
)
from .errors import (
    DataError,
    NumericError,
    QueryParseError,
    SkqeError,
    UnsupportedQueryError,
)
from .kg import (
    AdjacencyIndex,
    KnowledgeGraph,
    Vocabulary,
    build_index,
    generate_synthetic,
    load_tsv,
    load_tsv_dir,
    write_tsv,
)
from .logic import TruthBounds, conjoin_bounds
from .model import (
    ModelConfig,
    ModelParams,
    QueryEmbedding,
    embed_instance,
    entity_embedding,
    score_entities,
)
from .oracle import (
    QueryDataset,
    QuerySample,
    eval_plan,
    exhaustive_eval,
    follow,
    read_dataset,
    sample_dataset,
    sample_queries,
    write_dataset,
)
from .training import TrainConfig, margin_loss, sample_negatives, train, train_cardinality_head
from .evaluation import (
    RankingReport,
    UncertaintyReport,
    evaluate_ranking,
    mrr_hits,
    pearson,
    spearman,
    uncertainty_correlation,
)

__version__ = "0.1.0"
