"""Entity-weighted hybrid document re-ranking pipeline.

Stages: BM25+RM3 candidate retrieval, per-query entity pooling and
ranking, hybrid entity+text document scoring, pointwise cross-validated
training, and evaluation / difficulty analysis. See the `dreq` CLI for
the end-to-end orchestration.
"""

from .corpus import (
    CorpusStore,
    Document,
    EntityMention,
    EntityRecord,
    Passage,
    Qrels,
    Query,
    SegmenterConfig,
    load_corpus,
    load_entity_catalog,
    load_qrels,
    load_queries,
    pool_entities,
    segment_passages,
    transfer_labels,
)
from .embeddings import (
    DimsConfig,
    EmbeddingStore,
    cosine,
    load_store,
    save_store,
    sigmoid,
    softmax,
    synthetic_embed,
)
from .entity_ranking import (
    EntityHead,
    EntityRanking,
    bm25_entity_rank,
    geeer_entity_rank,
    rank_entities,
    score_entity,
    train_entity_head,
)
from .evaluation import (
    MetricsReport,
    average_precision,
    evaluate_run,
    ndcg_at_k,
    paired_t_test,
    precision_at_k,
    recall_at_k,
    wig,
)
from .model import (
    DreqModel,
    FeatureTable,
    WeightingMode,
    build_feature_table,
    maxsimcos_rerank,
    rerank,
    text_centric_embedding,
)
from .retrieval import (
    Bm25Params,
    InvertedIndex,
    Ranking,
    Rm3Params,
    RunEntry,
    TokenizerConfig,
    bm25_score,
    build_index,
    retrieve,
    rm3_expand,
    tokenize,
)
from .training import (
    FoldPlan,
    TrainConfig,
    TrainingExample,
    adam_step,
    bce_loss,
    build_doc_examples,
    make_folds,
    train_dreq,
)

__version__ = "0.1.0"
