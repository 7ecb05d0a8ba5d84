"""Persistence of computed Gram points and zeros.

Layout under a range directory:

    gram.csv      index,t rows for Gram points (t as 17 significant digits)
    zeros.csv     index,t rows for zero ordinates
    manifest.json version, extent, method, epsilon, creation time, checksum

The checksum is a 64-bit BLAKE2b over the two CSV payloads in fixed order, so
a single flipped byte in either file is caught at load time.  Heights written
with 17 significant digits round-trip binary64 exactly; integer fields
round-trip bit-exact.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from .errors import ChecksumMismatch, ParseError, VersionMismatch
from .moments import EPSILON_DEFAULT
from .zeros import ZeroTable, certified_table, require_under_ceiling

STORE_VERSION = 1


@dataclass(frozen=True)
class CacheManifest:
    version: int
    n_max_gram: int
    t_max: float
    zero_count: int
    method: str
    epsilon: float
    created: str
    checksum: str


def fmt_height(x: float) -> str:
    return format(float(x), ".17g")


def _digest(gram_bytes: bytes, zero_bytes: bytes) -> str:
    h = hashlib.blake2b(digest_size=8)
    h.update(gram_bytes)
    h.update(zero_bytes)
    return h.hexdigest()


def _gram_csv(table: ZeroTable) -> bytes:
    lines = ["index,t"]
    lines.extend(f"{n},{fmt_height(t)}" for n, t in enumerate(table.gram))
    return ("\n".join(lines) + "\n").encode()


def _zeros_csv(table: ZeroTable) -> bytes:
    lines = ["index,t"]
    lines.extend(f"{i + 1},{fmt_height(t)}" for i, t in enumerate(table.zeros))
    return ("\n".join(lines) + "\n").encode()


def save_range(table: ZeroTable, path: str | Path,
               epsilon: float = EPSILON_DEFAULT) -> CacheManifest:
    """Persist a table; its manifest's n_max_gram is the certified index."""
    path = Path(path)
    path.mkdir(parents=True, exist_ok=True)
    gram_b = _gram_csv(table)
    zero_b = _zeros_csv(table)
    manifest = CacheManifest(
        version=STORE_VERSION,
        n_max_gram=int(table.gram.size - 1),
        t_max=float(table.gram[-1]),
        zero_count=int(table.zeros.size),
        method="riemann_siegel+euler_maclaurin",
        epsilon=float(epsilon),
        created=datetime.now(timezone.utc).isoformat(),
        checksum=_digest(gram_b, zero_b),
    )
    (path / "gram.csv").write_bytes(gram_b)
    (path / "zeros.csv").write_bytes(zero_b)
    (path / "manifest.json").write_text(
        json.dumps(manifest.__dict__, indent=2) + "\n", encoding="utf-8")
    return manifest


def _parse_csv(raw: bytes, what: str) -> np.ndarray:
    lines = raw.decode("utf-8").splitlines()
    if not lines or lines[0] != "index,t":
        raise ParseError(f"{what}: missing index,t header", line=1)
    vals = []
    for i, line in enumerate(lines[1:], start=2):
        try:
            idx_s, t_s = line.split(",")
            vals.append(float(t_s))
        except ValueError as exc:
            raise ParseError(f"{what}: {exc}", line=i) from None
    return np.asarray(vals)


def load_manifest(path: str | Path) -> CacheManifest:
    """The manifest at path; a truncated or incomplete one is a ChecksumMismatch."""
    mpath = Path(path) / "manifest.json"
    try:
        return CacheManifest(**json.loads(mpath.read_text(encoding="utf-8")))
    except (ValueError, TypeError) as exc:  # truncated JSON, missing or extra field
        raise ChecksumMismatch(f"{mpath}: damaged manifest ({exc})") from None


def load_range(path: str | Path) -> tuple[ZeroTable, CacheManifest]:
    """Load a persisted range; verifies version, checksum, extent, and that no
    zero lies above the last Gram point, the certified anchor of a built table."""
    path = Path(path)
    manifest = load_manifest(path)
    if manifest.version != STORE_VERSION:
        raise VersionMismatch(
            f"store version {manifest.version}, supported {STORE_VERSION}")
    try:
        gram_b = (path / "gram.csv").read_bytes()
        zero_b = (path / "zeros.csv").read_bytes()
    except FileNotFoundError as exc:
        raise ChecksumMismatch(f"{exc.filename}: missing from the range") from None
    if _digest(gram_b, zero_b) != manifest.checksum:
        raise ChecksumMismatch(f"{path}: data does not match manifest checksum")
    gram = _parse_csv(gram_b, "gram.csv")
    zeros = _parse_csv(zero_b, "zeros.csv")
    claimed = (manifest.n_max_gram, manifest.zero_count, [manifest.t_max])
    held = (gram.size - 1, zeros.size, gram[-1:].tolist())
    if claimed != held:
        raise ChecksumMismatch(f"{path}: manifest (n_max_gram, zero_count, [t_max]) "
                               f"= {claimed}, data {held}")
    if zeros.size and not zeros[-1] < gram[-1]:
        raise ChecksumMismatch(f"{path}: zero {fmt_height(zeros[-1])} is not below "
                               "the last Gram point")
    table = ZeroTable.from_arrays(gram, zeros)
    return table, manifest


def cached_table(n_needed: int, path: str | Path | None,
                 epsilon: float = EPSILON_DEFAULT) -> ZeroTable:
    """Table certified through Gram index n_needed, through the range at path.

    Loads path when its manifest reaches n_needed; otherwise builds with
    `certified_table` and saves the result there.  path None caches nothing.
    ResourceError, before the cache is read, past the table ceiling.
    """
    require_under_ceiling(n_needed)
    if path is not None and (Path(path) / "manifest.json").exists() \
            and load_manifest(path).n_max_gram >= n_needed:
        return load_range(path)[0]
    table = certified_table(n_needed)
    if path is not None:
        save_range(table, path, epsilon=epsilon)
    return table
