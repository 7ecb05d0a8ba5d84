"""Persistence of computed Gram points, Z at them, and zeros.

Layout under a range directory (store format version 2):

    gram.csv      index,t,z rows: Gram point t_n and Z(t_n) for n = 0..n_max_gram
    zeros.csv     index,t rows: zero ordinates, indexed from 1
    manifest.json version, extent, method, epsilon, creation time, checksum

The checksum is a 64-bit BLAKE2b over the two CSV payloads in fixed order, so
a single flipped byte in either file is caught at load time.  Heights and Z
values are written with 17 significant digits and round-trip binary64
exactly.  Past the checksum, a load requires the index columns to count
0..n_max_gram and 1..zero_count, finite strictly ascending heights, finite Z,
and the extent the manifest states.

A loaded table takes the stored Z only if the current kernel reproduces it
bit for bit at `z_sample` (every Gram index below 512, which covers both Z
routes, then every 1024th, and the last); otherwise Z is recomputed on first
use.  This catches a range written by another kernel, which moves every
value; a change at an unsampled index alone is not detected.

Version 1 ranges (gram.csv as index,t) still load; their Z is recomputed.
`cached_table` saves a range whose stored Z was not kept once more, with the
recomputed column.
A save writes each file beside its place and renames it in, data before the
manifest, and removes the old manifest first: a save cut short leaves no
manifest, so the range is rebuilt rather than read.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
from dataclasses import dataclass
from datetime import datetime, timezone
from itertools import chain
from pathlib import Path

import numpy as np

from . import zeta
from .errors import ChecksumMismatch, ParseError, VersionMismatch
from .moments import EPSILON_DEFAULT
from .zeros import ZeroTable, certified_table, require_under_ceiling

STORE_VERSION = 2
_GRAM_HEADERS = {1: "index,t", 2: "index,t,z"}  # by store version
_ZEROS_HEADER = "index,t"
_Z_SAMPLE_HEAD = 512     # Gram indices re-evaluated in full: t < 827, both Z routes
_Z_SAMPLE_STRIDE = 1024  # then every this many, and the last
_CSV_ROWS = 8192         # rows per format call; keeps the writer's temporaries small


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


def _csv(header: str, row: str, first: int, *columns: np.ndarray) -> bytes:
    """header, then row %-formatted with (index, *values) for each entry of
    columns, indexed from first; one format call per _CSV_ROWS rows."""
    n = len(columns[0])
    parts = [header + "\n"]
    for a in range(0, n, _CSV_ROWS):
        b = min(a + _CSV_ROWS, n)
        fields = zip(range(first + a, first + b), *(c[a:b].tolist() for c in columns))
        parts.append(row * (b - a) % tuple(chain.from_iterable(fields)))
    return "".join(parts).encode()


def z_sample(size: int) -> np.ndarray:
    """The Gram indices at which a stored Z column is re-evaluated on load."""
    n = np.arange(size)
    return n[(n < _Z_SAMPLE_HEAD) | (n % _Z_SAMPLE_STRIDE == 0) | (n == size - 1)]


def _write_replacing(path: Path, data: bytes) -> None:
    """Write data beside path, then rename it into place."""
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_bytes(data)
    os.replace(tmp, path)


def save_range(table: ZeroTable, path: str | Path,
               epsilon: float = EPSILON_DEFAULT) -> CacheManifest:
    """Persist a table; its manifest's n_max_gram is the certified index."""
    path = Path(path)
    path.mkdir(parents=True, exist_ok=True)
    gram_b = _csv(_GRAM_HEADERS[STORE_VERSION], "%d,%.17g,%.17g\n", 0,
                  table.gram, table.z_values())
    zero_b = _csv(_ZEROS_HEADER, "%d,%.17g\n", 1, table.zeros)
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
    (path / "manifest.json").unlink(missing_ok=True)
    _write_replacing(path / "gram.csv", gram_b)
    _write_replacing(path / "zeros.csv", zero_b)
    _write_replacing(path / "manifest.json",
                     (json.dumps(manifest.__dict__, indent=2) + "\n").encode())
    return manifest


def _parse_csv(raw: bytes, what: str, header: str) -> np.ndarray:
    """The rows under header as a float array of shape (rows, columns)."""
    if raw.partition(b"\n")[0] != header.encode():
        raise ParseError(f"{what}: missing {header} header", line=1)
    width = header.count(",") + 1
    rows = raw.count(b"\n") - raw.endswith(b"\n")
    if not rows:
        return np.empty((0, width))
    try:
        cols = np.loadtxt(io.BytesIO(raw), delimiter=",", comments=None, skiprows=1,
                          ndmin=2)
        if cols.shape == (rows, width):
            return cols
    except ValueError:
        pass
    # name the first bad line
    lines = raw.decode("utf-8", "replace").splitlines()
    for i, line in enumerate(lines[1:], start=2):
        try:
            if len([float(f) for f in line.split(",")]) != width:
                raise ValueError(f"{width} fields expected")
        except ValueError as exc:
            raise ParseError(f"{what}: {exc}", line=i) from None
    raise ParseError(f"{what}: rows do not parse")


def _check_columns(cols: np.ndarray, first: int, what: str) -> None:
    """ChecksumMismatch unless the index column counts up from first, the
    heights are finite and strictly ascending, and any Z column is finite."""
    if not np.array_equal(cols[:, 0], np.arange(first, first + len(cols))):
        raise ChecksumMismatch(f"{what}: index column is not "
                               f"{first}..{first + len(cols) - 1}")
    if not np.isfinite(cols[:, 1:]).all():
        raise ChecksumMismatch(f"{what}: a height or Z value is not finite")
    if not (np.diff(cols[:, 1]) > 0.0).all():
        raise ChecksumMismatch(f"{what}: heights are not strictly ascending")


def load_manifest(path: str | Path) -> CacheManifest:
    """The manifest at path; a truncated or incomplete one is a ChecksumMismatch."""
    mpath = Path(path) / "manifest.json"
    try:
        return CacheManifest(**json.loads(mpath.read_text(encoding="utf-8")))
    except (ValueError, TypeError) as exc:  # truncated JSON, missing or extra field
        raise ChecksumMismatch(f"{mpath}: damaged manifest ({exc})") from None


def load_range(path: str | Path) -> tuple[ZeroTable, CacheManifest]:
    """Load a persisted range; verifies version, checksum, the columns, extent,
    and that no zero lies above the last Gram point, the certified anchor of a
    built table.  The stored Z is kept if it passes the `z_sample` check."""
    path = Path(path)
    manifest = load_manifest(path)
    if manifest.version not in _GRAM_HEADERS:
        raise VersionMismatch(f"store version {manifest.version}, "
                              f"supported {', '.join(map(str, _GRAM_HEADERS))}")
    try:
        gram_b = (path / "gram.csv").read_bytes()
        zero_b = (path / "zeros.csv").read_bytes()
    except FileNotFoundError as exc:
        raise ChecksumMismatch(f"{exc.filename}: missing from the range") from None
    if _digest(gram_b, zero_b) != manifest.checksum:
        raise ChecksumMismatch(f"{path}: data does not match manifest checksum")
    gram_cols = _parse_csv(gram_b, "gram.csv", _GRAM_HEADERS[manifest.version])
    zero_cols = _parse_csv(zero_b, "zeros.csv", _ZEROS_HEADER)
    _check_columns(gram_cols, 0, "gram.csv")
    _check_columns(zero_cols, 1, "zeros.csv")
    gram, zeros = gram_cols[:, 1].copy(), zero_cols[:, 1].copy()
    claimed = (manifest.n_max_gram, manifest.zero_count, [manifest.t_max])
    held = (gram.size - 1, zeros.size, gram[-1:].tolist())
    if claimed != held:
        raise ChecksumMismatch(f"{path}: manifest (n_max_gram, zero_count, [t_max]) "
                               f"= {claimed}, data {held}")
    if zeros.size and not zeros[-1] < gram[-1]:
        raise ChecksumMismatch(f"{path}: zero {fmt_height(zeros[-1])} is not below "
                               "the last Gram point")
    z_gram = None
    if gram_cols.shape[1] == 3:
        idx = z_sample(gram.size)
        if zeta.hardy_z_many(gram[idx]).tobytes() == gram_cols[idx, 2].tobytes():
            z_gram = gram_cols[:, 2].copy()
    return ZeroTable(gram, zeros, z_gram), manifest


def cached_table(n_needed: int, path: str | Path | None,
                 epsilon: float = EPSILON_DEFAULT) -> ZeroTable:
    """Table certified through Gram index n_needed, through the range at path.

    Loads path when its manifest reaches n_needed; otherwise builds with
    `certified_table` and saves the result there.  A loaded range that keeps
    no stored Z (version 1, or Z another kernel wrote) is saved once more with
    the recomputed column, so the next load keeps it.  path None caches
    nothing.  ResourceError, before the cache is read, past the table ceiling.
    """
    require_under_ceiling(n_needed)
    if path is not None and (Path(path) / "manifest.json").exists() \
            and load_manifest(path).n_max_gram >= n_needed:
        table, manifest = load_range(path)
        if table.z_gram is None:
            save_range(table, path, epsilon=manifest.epsilon)
        return table
    table = certified_table(n_needed)
    if path is not None:
        save_range(table, path, epsilon=epsilon)
    return table
