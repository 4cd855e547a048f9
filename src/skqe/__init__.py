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
    to_dnf,
    validate,
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
from .logic import (
    TNormKind,
    TruthBounds,
    conjoin_bounds,
    disjoin_bounds,
    dissimilarity,
    entropy_vector,
    negate,
    tnorm,
    weighted_tnorm,
)
from .model import (
    ModelConfig,
    ModelParams,
    QueryEmbedding,
    embed_instance,
    embed_query,
    entity_embedding,
    predict_cardinality,
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
    cardinality_mae,
    evaluate_ranking,
    mrr_hits,
    pearson,
    spearman,
    uncertainty_correlation,
)

__version__ = "0.1.0"
