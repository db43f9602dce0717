"""Fixed-dimension embedding stores and small numeric helpers.

A store holds the vectors of one embedding space (entities, passages,
queries, query-conditioned entity encodings): its ids and one float64
(len(ids), dim) matrix whose row i is the vector of ids[i], with a row index
built once. The constructor, which takes the ids and the matrix, is the one
place a store's contents are checked. Readers gather rows with `take` or use
the matrix itself, and the file holds those two arrays as they are.

A deterministic hash-seeded embedder stands in for neural encoders at desk
scale. `synthetic_embed_rows` embeds a whole store's keys in one call: the
FNV-1a-64 hash of every key and the SplitMix64 words drawn from it are uint64
array arithmetic, and each row is normalized by its own `np.linalg.norm` call
(`unit_rows`), so a row's bits do not depend on the keys embedded with it.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from . import _npz
from .config import DimsConfig

__all__ = [
    "DimsConfig",
    "EmbeddingStore",
    "STORE_NAMES",
    "store_path",
    "load_store",
    "save_store",
    "synthetic_embed_rows",
    "unit_rows",
    "softmax",
    "sigmoid",
    "cosine",
    "passage_key",
    "query_entity_key",
]


def passage_key(doc_id: str, index: int) -> str:
    """Store key for passage `index` of document `doc_id`."""
    return f"{doc_id}::{index}"


def query_entity_key(query_id: str, entity_id: str) -> str:
    """Store key for the query-conditioned encoding of an entity."""
    return f"{query_id}::{entity_id}"


@dataclass(eq=False)
class EmbeddingStore:
    """Row i of the (len(ids), dim) float64 matrix `vectors` is the vector of
    `ids[i]`; `row` maps an id to its row."""

    space: str
    ids: list[str]
    vectors: np.ndarray

    def __post_init__(self) -> None:
        self.ids = list(self.ids)
        v = self.vectors = np.asarray(self.vectors)
        if v.dtype != np.float64 or v.ndim != 2 or len(v) != len(self.ids):
            raise ValueError(
                f"store '{self.space}': {len(self.ids)} ids for a {v.dtype} {v.shape} matrix"
            )
        if v.shape[1] < 1:
            raise ValueError(f"store '{self.space}': dim must be >= 1, got {v.shape[1]}")
        self.row = {key: i for i, key in enumerate(self.ids)}
        if len(self.row) < len(self.ids):
            duplicate = next(key for i, key in enumerate(self.ids) if self.row[key] != i)
            raise ValueError(f"duplicate id {duplicate!r} in store '{self.space}'")
        non_finite = np.flatnonzero(~np.isfinite(v).all(axis=1))
        if non_finite.size:
            bad = self.ids[non_finite[0]]
            raise ValueError(f"non-finite components in vector for id {bad!r} in store '{self.space}'")

    @property
    def dim(self) -> int:
        return self.vectors.shape[1]

    def __len__(self) -> int:
        return len(self.ids)

    def __contains__(self, key: str) -> bool:
        return key in self.row

    def _rows(self, keys: Iterable[str]) -> list[int]:
        try:
            return [self.row[key] for key in keys]
        except KeyError as e:
            raise KeyError(f"id {e.args[0]!r} not found in store '{self.space}'") from None

    def take(self, keys: Iterable[str]) -> np.ndarray:
        """(len(keys), dim) rows of `keys`, in order, gathered in one call."""
        return self.vectors[np.array(self._rows(keys), dtype=np.intp)]

    def get(self, key: str) -> np.ndarray:
        """The row of `key`, a view of `vectors`."""
        return self.vectors[self._rows((key,))[0]]


#: the stores `synth-embed` writes to a work directory's `stores/`
STORE_NAMES = ("query", "entity", "passage", "query_entity")


def store_path(workdir: str, name: str) -> str:
    """Where store `name` lives in `workdir`."""
    return os.path.join(workdir, "stores", f"{name}.npz")


def save_store(store: EmbeddingStore, path: str) -> None:
    """Write the store's space, ids and (len, dim) vector matrix."""
    ids, id_offsets = _npz.pack_strings(store.ids)
    _npz.write(path, {
        "space": np.frombuffer(store.space.encode("utf-8"), dtype=np.uint8),
        "ids": ids,
        "id_offsets": id_offsets,
        "vectors": store.vectors,
    })


def load_store(path: str) -> EmbeddingStore:
    """Load a store written by :func:`save_store`; its vectors are the file's matrix."""
    names = ("space", "ids", "id_offsets", "vectors")
    arrays = _npz.read(path, names, "embedding store", "synth-embed")
    try:
        return EmbeddingStore(
            arrays["space"].tobytes().decode("utf-8"),
            _npz.unpack_strings(arrays["ids"], arrays["id_offsets"]),
            arrays["vectors"],
        )
    except ValueError as e:
        raise ValueError(f"{path}: {e}; rerun `dreq synth-embed`") from e


# --- deterministic synthetic embedder ---------------------------------------

_FNV_OFFSET = np.uint64(0xCBF29CE484222325)
_FNV_PRIME = np.uint64(0x00000100000001B3)
_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)


def _fnv1a64(keys: list[bytes]) -> np.ndarray:
    """FNV-1a-64 of each byte string, as a uint64 array: one pass over the
    byte columns of all keys at once, each row stopping at its own length."""
    lens = np.fromiter(map(len, keys), dtype=np.intp, count=len(keys))
    width = int(lens.max(initial=0))
    data = np.zeros((len(keys), width), dtype=np.uint8)
    data[np.arange(width) < lens[:, None]] = np.frombuffer(b"".join(keys), dtype=np.uint8)
    h = np.full(len(keys), _FNV_OFFSET)
    for j in range(width):
        h = np.where(j < lens, (h ^ data[:, j]) * _FNV_PRIME, h)
    return h


def _splitmix64(seeds: np.ndarray, count: int) -> np.ndarray:
    """(len(seeds), count) uint64: the first `count` SplitMix64 words from each seed."""
    z = seeds[:, None] + _GOLDEN * np.arange(1, count + 1, dtype=np.uint64)
    z = (z ^ (z >> np.uint64(30))) * _MIX1
    z = (z ^ (z >> np.uint64(27))) * _MIX2
    return z ^ (z >> np.uint64(31))


def unit_rows(rows: np.ndarray) -> np.ndarray:
    """Each row divided by its own `np.linalg.norm`, one call per row, so a
    row's bits do not depend on the rows beside it."""
    return rows / np.array([np.linalg.norm(row) for row in rows]).reshape(-1, 1)


def synthetic_embed_rows(namespace: str, ids: Sequence[str], dim: int, seed: int) -> np.ndarray:
    """(len(ids), dim) deterministic unit vectors; row i is derived from
    (namespace, ids[i], seed).

    Hashes `namespace \\x1f id \\x1f seed` (UTF-8) with FNV-1a-64, draws
    `dim` SplitMix64 words from the hash, maps the top 53 bits of each into
    [-1, 1), then L2-normalizes the row. All rows are hashed and drawn in
    uint64 array arithmetic, so a row is the same whichever ids come with
    it, on every platform.
    """
    if dim < 1:
        raise ValueError(f"dim must be >= 1, got {dim}")
    prefix, suffix = namespace + "\x1f", "\x1f" + str(seed)
    keys = [(prefix + id + suffix).encode("utf-8") for id in ids]
    words = _splitmix64(_fnv1a64(keys), dim)
    return unit_rows((words >> np.uint64(11)) / 2.0**53 * 2.0 - 1.0)


# --- dense kernels -----------------------------------------------------------


def softmax(x) -> np.ndarray:
    """Numerically stable exp-normalization; output sums to 1."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1 or x.size == 0:
        raise ValueError("softmax expects a non-empty 1-d array")
    shifted = x - np.max(x)
    e = np.exp(shifted)
    return e / np.sum(e)


def sigmoid(x):
    """Numerically stable logistic function, elementwise on arrays."""
    x = np.asarray(x, dtype=np.float64)
    e = np.exp(-np.abs(x))  # exp(-x) where x >= 0, exp(x) elsewhere
    out = np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))
    if out.ndim == 0:
        return float(out)
    return out


def cosine(u: np.ndarray, v: np.ndarray) -> float:
    """Cosine similarity in [-1, 1]; zero vectors are rejected."""
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    if u.shape != v.shape or u.ndim != 1:
        raise ValueError(f"cosine expects equal-dim vectors, got {u.shape} and {v.shape}")
    nu = float(np.linalg.norm(u))
    nv = float(np.linalg.norm(v))
    if nu == 0.0 or nv == 0.0:
        raise ValueError("cosine undefined for zero vectors")
    c = float(np.dot(u, v)) / (nu * nv)
    return max(-1.0, min(1.0, c))
