"""The one file format for numeric artifacts that one stage hands to the next.

An artifact is a set of named numpy arrays in an uncompressed zip of `.npy`
members, every member stamped 1980-01-01, so identical arrays give identical
bytes. Arrays are read with `allow_pickle=False`. Strings travel as UTF-8
bytes: a list of them as one blob plus int64 byte offsets, which, unlike a
`U` array, keeps trailing NULs.
"""

from __future__ import annotations

import zipfile

import numpy as np


def pack_strings(items: list[str]) -> tuple[np.ndarray, np.ndarray]:
    """UTF-8 blob plus int64 byte offsets (len(items) + 1 of them)."""
    offsets = np.zeros(len(items) + 1, dtype=np.int64)
    sizes = (len(item.encode("utf-8")) for item in items)
    np.cumsum(np.fromiter(sizes, dtype=np.int64, count=len(items)), out=offsets[1:])
    return np.frombuffer("".join(items).encode("utf-8"), dtype=np.uint8), offsets


def unpack_strings(blob: np.ndarray, offsets: np.ndarray) -> list[str]:
    data = blob.tobytes()
    cuts = offsets.tolist()
    return [data[a:b].decode("utf-8") for a, b in zip(cuts, cuts[1:])]


def bounds(offsets: np.ndarray, size: int) -> bool:
    """`offsets` cut `size` items into consecutive parts: from 0 to `size`,
    never decreasing."""
    return len(offsets) > 0 and offsets[0] == 0 and offsets[-1] == size and (
        np.diff(offsets) >= 0).all()


def write(path: str, arrays: dict[str, np.ndarray]) -> None:
    """Write `arrays` as members `<name>.npy`, in the dict's order."""
    with zipfile.ZipFile(path, "w", zipfile.ZIP_STORED) as zf:
        for name, value in arrays.items():
            member = zipfile.ZipInfo(f"{name}.npy", date_time=(1980, 1, 1, 0, 0, 0))
            with zf.open(member, "w", force_zip64=True) as f:
                np.lib.format.write_array(f, np.asarray(value), allow_pickle=False)


def _member(zf: zipfile.ZipFile, name: str) -> np.ndarray:
    with zf.open(f"{name}.npy") as f:
        return np.lib.format.read_array(f, allow_pickle=False)


def read(path: str, names: tuple[str, ...], kind: str, stage: str) -> dict[str, np.ndarray]:
    """The arrays `names` of the `kind` artifact at `path`; a file that is not
    a zip of exactly those members is a ValueError naming the `dreq` stage
    that writes it."""
    rerun = f"rerun `dreq {stage}`"
    try:
        with zipfile.ZipFile(path) as zf:
            complete = sorted(zf.namelist()) == sorted(f"{name}.npy" for name in names)
            arrays = {name: _member(zf, name) for name in names} if complete else None
    except (zipfile.BadZipFile, EOFError, ValueError) as e:
        raise ValueError(f"{path}: unreadable {kind} ({e}); {rerun}") from e
    if arrays is None:
        raise ValueError(f"{path}: not a dreq {kind} of this version; {rerun}")
    return arrays
