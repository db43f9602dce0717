"""Entity-weighted hybrid document re-ranking pipeline.

Stages: BM25+RM3 candidate retrieval, per-query entity pooling and
ranking, hybrid entity+text document scoring, pointwise cross-validated
training, and evaluation / difficulty analysis. See the `dreq` CLI for
the end-to-end orchestration. Import what you use from its module
(`dreq.retrieval`, `dreq.model`, ...): the package itself loads none of
them, so each CLI stage loads only the modules it runs.
"""

__version__ = "0.1.0"
