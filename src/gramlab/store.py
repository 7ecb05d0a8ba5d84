"""Persistence of computed Gram points, Z at them, and zeros.

Layout under a range directory (store format version 3):

    gram.csv      index,t,z rows: Gram point t_n and Z(t_n) for n = 0..n_max_gram
    zeros.csv     index,t rows: zero ordinates, indexed from 1
    manifest.json version, extent, creation time, checksum

The checksum is a 64-bit BLAKE2b over the two CSV payloads in fixed order, so
a single flipped byte in either file is caught at load time.  Heights and Z
values are written with 17 significant digits and round-trip binary64
exactly.  Past the checksum, a load requires each file's header and rows of
its width, index columns that count 0..n_max_gram and 1..zero_count, finite
strictly ascending heights, finite Z, the extent the manifest states, and
zeros above t_0 and below the last Gram point.

A stored range is this code's output or it is rebuilt.  A load raises
VersionMismatch for a manifest of another format version, and for a stored Z
that the current kernel does not reproduce bit for bit at `z_sample` (every
Gram index below 512, which covers both Z routes, then every 1024th, and the
last): another kernel moves every value, and its zeros with them; a change at
an unsampled index alone is not detected.  `cached_table` rebuilds such a
range and overwrites it, as it does a miss.  Damaged data is no such case:
every fault of a stored range, whether of its checksum, header, rows,
columns or extent, is a ChecksumMismatch.  ParseError is for external
ordinate tables only.

A save writes each file beside its place and renames it in, data before the
manifest, and removes the old manifest first: a save cut short leaves no
manifest, so the range is rebuilt rather than read.

Neither direction holds a whole file.  A save formats, hashes and writes
_CSV_ROWS rows at a time.  A load opens each file once and reads it twice:
it hashes both files _READ_BYTES at a time, counting their lines, and
compares the checksum before it parses a row, so a damaged byte is a
checksum mismatch; then it parses each file from the start, _CSV_ROWS rows
at a time, into value columns sized from the counted lines, and checks them
whole; a block that does not parse is named by its lines.  The parsed bytes
are the hashed bytes because a save renames a new file into place and never
writes a data file in place.
"""

from __future__ import annotations

import hashlib
import json
import os
from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from datetime import datetime, timezone
from itertools import chain, islice
from pathlib import Path

import numpy as np

from . import zeta
from .errors import ChecksumMismatch, VersionMismatch
from .zeros import ZeroTable, certified_table, require_under_ceiling

STORE_VERSION = 3
_GRAM_HEADER = "index,t,z"
_ZEROS_HEADER = "index,t"
_Z_SAMPLE_HEAD = 512     # Gram indices re-evaluated in full: t < 827, both Z routes
_Z_SAMPLE_STRIDE = 1024  # then every this many, and the last
_CSV_ROWS = 4096         # rows per format call and written block
_READ_BYTES = 1 << 16    # bytes per read of a data file


@dataclass(frozen=True)
class CacheManifest:
    version: int
    n_max_gram: int
    t_max: float
    zero_count: int
    created: str
    checksum: str


def fmt_height(x: float) -> str:
    return format(float(x), ".17g")


def _hasher():
    """The manifest checksum: a 64-bit BLAKE2b over gram.csv, then zeros.csv."""
    return hashlib.blake2b(digest_size=8)


def _digest(gram_bytes: bytes, zero_bytes: bytes) -> str:
    h = _hasher()
    h.update(gram_bytes)
    h.update(zero_bytes)
    return h.hexdigest()


def _csv(hasher, header: str, row: str, first: int, *columns: np.ndarray
         ) -> Iterator[bytes]:
    """header, then row %-formatted with (index, *values) for each entry of
    columns, indexed from first, as blocks of _CSV_ROWS rows; each block is
    added to hasher as it is made."""
    n = len(columns[0])

    def rows(a: int) -> bytes:
        b = min(a + _CSV_ROWS, n)
        fields = zip(range(first + a, first + b), *(c[a:b].tolist() for c in columns))
        return (row * (b - a) % tuple(chain.from_iterable(fields))).encode()

    for block in chain([(header + "\n").encode()], map(rows, range(0, n, _CSV_ROWS))):
        hasher.update(block)
        yield block


def z_sample(size: int) -> np.ndarray:
    """The Gram indices at which a stored Z column is re-evaluated on load."""
    n = np.arange(size)
    return n[(n < _Z_SAMPLE_HEAD) | (n % _Z_SAMPLE_STRIDE == 0) | (n == size - 1)]


def write_replacing(path: Path, data: bytes | Iterable[bytes]) -> None:
    """Write data, bytes or an iterable of byte blocks, beside path, then
    rename it into place; a write cut short removes what it wrote.  The one
    atomic file write: the range files here, and the prime files and sums
    sidecars of `primes`."""
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "wb") as fh:
            fh.writelines([data] if isinstance(data, bytes) else data)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def save_range(table: ZeroTable, path: str | Path) -> CacheManifest:
    """Persist a table; its manifest's n_max_gram is the certified index."""
    path = Path(path)
    path.mkdir(parents=True, exist_ok=True)
    z = table.z_values()
    h = _hasher()
    (path / "manifest.json").unlink(missing_ok=True)
    write_replacing(path / "gram.csv", _csv(h, _GRAM_HEADER, "%d,%.17g,%.17g\n", 0,
                                            table.gram, z))
    write_replacing(path / "zeros.csv", _csv(h, _ZEROS_HEADER, "%d,%.17g\n", 1,
                                             table.zeros))
    manifest = CacheManifest(
        version=STORE_VERSION,
        n_max_gram=int(table.gram.size - 1),
        t_max=float(table.gram[-1]),
        zero_count=int(table.zeros.size),
        created=datetime.now(timezone.utc).isoformat(),
        checksum=h.hexdigest(),
    )
    write_replacing(path / "manifest.json",
                    (json.dumps(manifest.__dict__, indent=2) + "\n").encode())
    return manifest


def _hash_lines(fh, hasher) -> int:
    """Add the file at fh to hasher, _READ_BYTES at a time; the number of
    lines it holds, an unterminated last line included."""
    lines, end = 0, b"\n"
    while chunk := fh.read(_READ_BYTES):
        hasher.update(chunk)
        lines, end = lines + chunk.count(b"\n"), chunk[-1:]
    return lines + (end != b"\n")


def _parse(fh, what: str, header: str, first: int, lines: int) -> list[np.ndarray]:
    """The value columns (height, then any Z) of the data file at fh, lines
    long, parsed _CSV_ROWS rows at a time from its start.  ChecksumMismatch
    unless it opens with header, each block of rows parses as rows of the
    header's width, the index column counts up from first, the heights are
    finite and strictly ascending, and any Z is finite."""
    fh.seek(0)
    if fh.readline().rstrip(b"\n") != header.encode():
        raise ChecksumMismatch(f"{what}: line 1 is not the {header} header")
    width, rows = header.count(",") + 1, lines - 1
    values = [np.empty(rows) for _ in range(width - 1)]
    for a in range(0, rows, _CSV_ROWS):
        n = min(_CSV_ROWS, rows - a)
        text, block = list(islice(fh, n)), None
        if any(map(bytes.strip, text)):     # np.loadtxt warns on a block of blank lines
            try:
                block = np.loadtxt(text, delimiter=",", comments=None, ndmin=2)
            except ValueError:
                pass
        if block is None or block.shape != (n, width):
            raise ChecksumMismatch(f"{what}: lines {a + 2}-{a + n + 1} are not rows "
                                   f"of {width} numbers")
        if not np.array_equal(block[:, 0], np.arange(first + a, first + a + n)):
            raise ChecksumMismatch(f"{what}: index column is not {first}..{first + rows - 1}")
        for j, column in enumerate(values, start=1):
            column[a : a + n] = block[:, j]
    if not all(np.isfinite(column).all() for column in values):
        raise ChecksumMismatch(f"{what}: a height or Z value is not finite")
    if not (values[0][1:] > values[0][:-1]).all():
        raise ChecksumMismatch(f"{what}: heights are not strictly ascending")
    return values


def load_manifest(path: str | Path) -> CacheManifest:
    """The manifest at path.  VersionMismatch if it states another version; a
    truncated or incomplete one is a ChecksumMismatch."""
    mpath = Path(path) / "manifest.json"
    try:
        data = json.loads(mpath.read_text(encoding="utf-8"))
        if data["version"] != STORE_VERSION:
            raise VersionMismatch(f"{mpath}: store version {data['version']}, "
                                  f"supported {STORE_VERSION}")
        manifest = CacheManifest(**data)
    except (ValueError, TypeError, KeyError) as exc:  # truncated, or a field missing
        raise ChecksumMismatch(f"{mpath}: damaged manifest ({exc})") from None
    if not all(type(n) is int for n in (manifest.n_max_gram, manifest.zero_count)):
        raise ChecksumMismatch(f"{mpath}: damaged manifest (n_max_gram and zero_count "
                               "must be integers)")
    return manifest


def load_range(path: str | Path) -> tuple[ZeroTable, CacheManifest]:
    """Load a persisted range; verifies version, checksum, the columns, extent,
    and that every zero lies above t_0 and below the last Gram point, the
    certified anchor of a built table.  VersionMismatch unless the current
    kernel reproduces the stored Z at `z_sample`."""
    path = Path(path)
    manifest = load_manifest(path)
    h = _hasher()
    try:
        with open(path / "gram.csv", "rb") as g, open(path / "zeros.csv", "rb") as zs:
            lines = [_hash_lines(fh, h) for fh in (g, zs)]
            if h.hexdigest() != manifest.checksum:
                raise ChecksumMismatch(f"{path}: data does not match manifest checksum")
            gram, z_gram = _parse(g, "gram.csv", _GRAM_HEADER, 0, lines[0])
            (zeros,) = _parse(zs, "zeros.csv", _ZEROS_HEADER, 1, lines[1])
    except FileNotFoundError as exc:
        raise ChecksumMismatch(f"{exc.filename}: missing from the range") from None
    claimed = (manifest.n_max_gram, manifest.zero_count, [manifest.t_max])
    held = (gram.size - 1, zeros.size, [float(gram[-1])] if gram.size else [])
    if claimed != held:
        raise ChecksumMismatch(f"{path}: manifest (n_max_gram, zero_count, [t_max]) "
                               f"= {claimed}, data {held}")
    if zeros.size and not gram[0] < zeros[0] <= zeros[-1] < gram[-1]:
        raise ChecksumMismatch(f"{path}: zeros {fmt_height(zeros[0])} to "
                               f"{fmt_height(zeros[-1])} do not lie above t_0 and "
                               "below the last Gram point")
    idx = z_sample(gram.size)
    if zeta.hardy_z_many(gram[idx]).tobytes() != z_gram[idx].tobytes():
        raise VersionMismatch(f"{path}: stored Z is not the current kernel's")
    return ZeroTable(gram, zeros, z_gram), manifest


def cached_table(n_needed: int, path: str | Path | None) -> ZeroTable:
    """Table certified through Gram index n_needed, through the range at path.

    Loads path when its manifest reaches n_needed; otherwise, or when the range
    is of another format version or kernel (VersionMismatch), builds with
    `certified_table` and saves the result there.  path None caches nothing.
    ResourceError, before the cache is read, past the table ceiling.
    """
    require_under_ceiling(n_needed)
    if path is not None and (Path(path) / "manifest.json").exists():
        try:
            if load_manifest(path).n_max_gram >= n_needed:
                return load_range(path)[0]
        except VersionMismatch:
            pass
    table = certified_table(n_needed)
    if path is not None:
        save_range(table, path)
    return table
