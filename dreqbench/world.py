"""Workload definitions and the planted-world set-up step.

Each workload names the planted world it runs on and the `dreq` CLI stages
that a researcher would type to reproduce the paper's table on it. Worlds
are built only through `dreq.synthetic` (`generate_planted_world` and
`write_world_files`), so the benchmark follows the generator as it changes.

Run as a script, this module is the set-up step that the benchmark times:

    python3 dreqbench/world.py <workload> <seed> <out_dir> [--smoke]

It imports `dreq` from `src/` of the checkout, generates the workload's
world from the seed and writes the input files to `out_dir`.
"""

from __future__ import annotations

import os
import sys
from dataclasses import dataclass

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")

# PLANTED_TRAIN in dreq.pipeline; written out here so that the benchmark
# keeps its settings when the program's constants move.
TRAIN_SETTINGS = {"train.learning_rate": "0.03", "train.batch_size": "20", "train.epochs": "30"}
# the generator's default embedding size (PlantedConfig.dims)
DIMS = 16


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    n_docs: int
    filler_vocab: int | None  # None keeps the generator's default
    stores: bool
    k: int
    stages: tuple[tuple[str, ...], ...]  # CLI argv after the global flags
    # run files to check: (label, file, the program's own nDCG@20 for it:
    # "eval:<tag>" report, "ablate:<row>" table row, or "" for none)
    runs: tuple[tuple[str, str, str], ...]
    final: str  # label of the run whose nDCG@20 is `ndcg20`

    def world_kwargs(self, seed: int, smoke: bool) -> dict:
        if smoke:  # the generator's default 500-doc world
            return {"seed": seed}
        kwargs = {"seed": seed, "n_docs": self.n_docs, "n_queries": 40}
        if self.filler_vocab is not None:
            kwargs["filler_vocab"] = self.filler_vocab
        return kwargs


_VARIANTS = ("dreq", "uniform", "reciprocal_rank", "no_entity")
_USER_PATH = (
    ("build-index",),
    ("retrieve",),
    ("pool-entities",),
    ("train-entity-ranker",),
    ("rank-entities", "--mode", "learned"),
)

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="s_pipeline",
            why=(
                "The user's path at k=1000: the scorer's forward pass over about 80k "
                "candidate docs dominates, and the four embedding stores load in four stages."
            ),
            n_docs=2000,
            filler_vocab=None,
            stores=True,
            k=1000,
            stages=_USER_PATH
            + (
                ("train-dreq",),
                # an explicit fold checkpoint and output: the default checkpoint
                # scores fold 0's own training queries and may be refused later
                ("rerank", "--mode", "dreq", "--checkpoint", "{work}/dreq_fold0.ckpt",
                 "--output", "{work}/rerank_dreq.run"),
                ("evaluate", "--run", "{work}/dreq.run", "--tag", "dreq"),
                ("evaluate", "--run", "{work}/candidates.run", "--tag", "candidates"),
            ),
            runs=(
                ("candidates", "candidates.run", "eval:candidates"),
                ("dreq", "dreq.run", "eval:dreq"),
                # throughput only: the fold-0 checkpoint has seen these queries
                ("rerank", "rerank_dreq.run", ""),
            ),
            final="dreq",
        ),
        Workload(
            name="m_first_stage",
            why=(
                "First stage and index artifact only, on a ~100k-term vocabulary: no model "
                "code runs, so a scorer change must read as no change here."
            ),
            n_docs=20000,
            filler_vocab=100000,
            stores=False,
            k=1000,
            stages=(
                ("build-index",),
                ("retrieve",),
                ("evaluate", "--run", "{work}/candidates.run", "--tag", "candidates"),
            ),
            runs=(("candidates", "candidates.run", "eval:candidates"),),
            final="candidates",
        ),
        Workload(
            name="s_ablate",
            why=(
                "The same model layer used for training, not serving: 4 variants x 5 folds "
                "train on 100 candidates per query, giving the paper's ablation numbers."
            ),
            n_docs=2000,
            filler_vocab=None,
            stores=True,
            k=100,
            stages=_USER_PATH + (("ablate",),),
            runs=(("candidates", "candidates.run", "ablate:candidates"),)
            + tuple((v, f"ablate_{v}.run", f"ablate:{v}") for v in _VARIANTS),
            final="dreq",
        ),
    )
}


def config_text(workload: Workload, seed: int, work: str) -> str:
    """The `key = value` config every stage of the workload reads."""
    values = {
        "corpus": os.path.join(work, "corpus.jsonl"),
        "entity_catalog": os.path.join(work, "entities.jsonl"),
        "queries": os.path.join(work, "queries.tsv"),
        "qrels": os.path.join(work, "qrels.txt"),
        "query_links": os.path.join(work, "query_links.tsv"),
        "retrieve.k": str(workload.k),
        "seed": str(seed),
        **{f"dims.{d}": str(DIMS) for d in "kmnp"},
        **TRAIN_SETTINGS,
    }
    return "".join(f"{key} = {value}\n" for key, value in values.items())


def require_source() -> None:
    """Put the checkout's `src/` first on the path, or fail if it is absent."""
    if not os.path.isfile(os.path.join(SRC, "dreq", "__init__.py")):
        raise SystemExit(f"error: no dreq package under {SRC}; run from a full checkout")
    if sys.path[:1] != [SRC]:
        sys.path.insert(0, SRC)


def build_world(workload: Workload, seed: int, out_dir: str, smoke: bool = False) -> None:
    """Generate the workload's planted world and write its input files."""
    require_source()
    from dreq.synthetic import PlantedConfig, generate_planted_world, write_world_files

    world = generate_planted_world(PlantedConfig(**workload.world_kwargs(seed, smoke)))
    write_world_files(world, out_dir, stores=workload.stores)


def main(argv: list[str]) -> int:
    if len(argv) not in (3, 4) or argv[0] not in WORKLOADS or argv[3:] not in ([], ["--smoke"]):
        print("usage: world.py <workload> <seed> <out_dir> [--smoke]", file=sys.stderr)
        return 2
    build_world(WORKLOADS[argv[0]], int(argv[1]), argv[2], smoke=bool(argv[3:]))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
