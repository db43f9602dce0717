"""The paper's qualitative claim on planted worlds: weighting a document's
entities by their ranking probability beats uniform weights, no entities,
and the candidate ranking. The numbers come from the CLI stages, run in
process up to `ablate`. Reciprocal-rank weights are not compared: on these
worlds they score level with probabilities."""

from dreq.synthetic import PlantedConfig
from dreq.training import PLANTED_TRAIN
from helpers import run_planted_ablation

# 3-seed held-out nDCG@20 (the `ablate.tsv` column) measured at 0.5617 (dreq)
# vs 0.4597 (candidates) / 0.4148 (uniform) / 0.4051 (no_entity); the
# smallest per-seed gap is 0.053
MARGIN = 0.05


def test_probability_weighted_entities_beat_the_baselines():
    ndcg = run_planted_ablation(PlantedConfig(), PLANTED_TRAIN, [1, 2, 3])
    for baseline in ("candidates", "uniform", "no_entity"):
        assert ndcg["dreq"] - ndcg[baseline] >= MARGIN, (baseline, ndcg)
