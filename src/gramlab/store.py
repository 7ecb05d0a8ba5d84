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

Neither direction holds a whole file.  A save formats, hashes and writes
_CSV_ROWS rows at a time.  A load reads each file once, _READ_BYTES at a
time: each read is hashed, and its whole lines are parsed straight into the
value columns and checked there, order across block ends included.  A fault
found in the rows waits until both files are hashed, so a damaged byte is a
checksum mismatch, and a bad row under a matching checksum is a ParseError
that names its line in the file.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
import os
from collections.abc import Iterable, Iterator
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
_CSV_ROWS = 4096         # rows per format call and written block
_READ_BYTES = 1 << 16    # bytes per read of a data file


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


def _write_replacing(path: Path, data: bytes | Iterable[bytes]) -> None:
    """Write data, bytes or an iterable of byte blocks, beside path, then
    rename it into place; a write cut short removes what it wrote."""
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "wb") as fh:
            fh.writelines([data] if isinstance(data, bytes) else data)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def save_range(table: ZeroTable, path: str | Path,
               epsilon: float = EPSILON_DEFAULT) -> CacheManifest:
    """Persist a table; its manifest's n_max_gram is the certified index."""
    path = Path(path)
    path.mkdir(parents=True, exist_ok=True)
    z = table.z_values()
    h = _hasher()
    (path / "manifest.json").unlink(missing_ok=True)
    _write_replacing(path / "gram.csv", _csv(h, _GRAM_HEADERS[STORE_VERSION],
                                             "%d,%.17g,%.17g\n", 0, table.gram, z))
    _write_replacing(path / "zeros.csv", _csv(h, _ZEROS_HEADER, "%d,%.17g\n", 1,
                                              table.zeros))
    manifest = CacheManifest(
        version=STORE_VERSION,
        n_max_gram=int(table.gram.size - 1),
        t_max=float(table.gram[-1]),
        zero_count=int(table.zeros.size),
        method="riemann_siegel+euler_maclaurin",
        epsilon=float(epsilon),
        created=datetime.now(timezone.utc).isoformat(),
        checksum=h.hexdigest(),
    )
    _write_replacing(path / "manifest.json",
                     (json.dumps(manifest.__dict__, indent=2) + "\n").encode())
    return manifest


class _Columns:
    """The rows of one data file, parsed block by block into its value
    columns (height, then any Z) and checked as they come.  Faults are kept,
    not raised, so that the caller compares the checksum first: the first
    parse fault, which ends the parse, and the first row that breaks each
    column check."""

    def __init__(self, what: str, header: str, first: int, last: int, size: int):
        """Columns for the indices first..last the manifest claims, but for no
        more rows than a file of size bytes holds (each at least 2 bytes a field)."""
        self.what, self.header, self.first = what, header, first
        self.width = header.count(",") + 1
        rows = min(max(last - first + 1, 0), size // (2 * self.width) + 1)
        self.values = [np.empty(rows) for _ in range(self.width - 1)]
        self.rows = 0               # rows parsed
        self.last = -math.inf       # the last height parsed
        self.parse_fault: ParseError | None = None
        self.broken = {"index": False, "finite": False, "order": False}
        self.line = 1               # the file's line at which the next block starts

    def feed(self, block: bytes) -> None:
        """Parse block, whole lines of the file from self.line on."""
        line, ends = self.line, block.count(b"\n")
        self.line += ends
        if self.parse_fault:
            return
        if line == 1:
            head, _, block = block.partition(b"\n")
            if head != self.header.encode():
                self.parse_fault = ParseError(f"{self.what}: missing {self.header} header",
                                              line=1)
                return
            line, ends = 2, ends - 1
        if not block:
            return
        rows = ends + (not block.endswith(b"\n"))
        try:
            cols = np.loadtxt(io.BytesIO(block), delimiter=",", comments=None, ndmin=2)
        except ValueError:
            cols = None
        if cols is None or cols.shape != (rows, self.width):
            self.parse_fault = self._bad_line(block, line)
            return
        n, t = self.rows, cols[:, 1]
        self.broken["index"] |= not np.array_equal(
            cols[:, 0], np.arange(self.first + n, self.first + n + rows))
        self.broken["finite"] |= not np.isfinite(cols[:, 1:]).all()
        self.broken["order"] |= not (t[0] > self.last and (t[1:] > t[:-1]).all())
        keep = max(0, min(rows, len(self.values[0]) - n))
        for j, column in enumerate(self.values, start=1):
            column[n : n + keep] = cols[:keep, j]
        self.rows, self.last = n + rows, float(t[-1])

    def _bad_line(self, block: bytes, line: int) -> ParseError:
        """The fault of the first line of block that does not parse."""
        for i, text in enumerate(block.decode("utf-8", "replace").splitlines(), start=line):
            try:
                if len([float(f) for f in text.split(",")]) != self.width:
                    raise ValueError(f"{self.width} fields expected")
            except ValueError as exc:
                return ParseError(f"{self.what}: {exc}", line=i)
        return ParseError(f"{self.what}: rows do not parse")

    def column_fault(self) -> ChecksumMismatch | None:
        """ChecksumMismatch unless the index column counts up from first, the
        heights are finite and strictly ascending, and any Z column is finite."""
        what, first = self.what, self.first
        if self.broken["index"]:
            return ChecksumMismatch(f"{what}: index column is not "
                                    f"{first}..{first + self.rows - 1}")
        if self.broken["finite"]:
            return ChecksumMismatch(f"{what}: a height or Z value is not finite")
        if self.broken["order"]:
            return ChecksumMismatch(f"{what}: heights are not strictly ascending")
        return None


def _read_columns(path: Path, header: str, first: int, last: int, hasher) -> _Columns:
    """The rows of the data file at path, read once, _READ_BYTES at a time:
    each read is added to hasher, then its whole lines are parsed."""
    with open(path, "rb") as fh:
        cols = _Columns(path.name, header, first, last, os.fstat(fh.fileno()).st_size)
        carry = b""                 # a line not yet whole
        while chunk := fh.read(_READ_BYTES):
            hasher.update(chunk)
            carry += chunk
            cut = carry.rfind(b"\n") + 1
            if cut:
                cols.feed(carry[:cut])
                carry = carry[cut:]
        cols.feed(carry)
    return cols


def load_manifest(path: str | Path) -> CacheManifest:
    """The manifest at path; a truncated or incomplete one is a ChecksumMismatch."""
    mpath = Path(path) / "manifest.json"
    try:
        manifest = CacheManifest(**json.loads(mpath.read_text(encoding="utf-8")))
    except (ValueError, TypeError) as exc:  # truncated JSON, missing or extra field
        raise ChecksumMismatch(f"{mpath}: damaged manifest ({exc})") from None
    if not all(type(n) is int for n in (manifest.n_max_gram, manifest.zero_count)):
        raise ChecksumMismatch(f"{mpath}: damaged manifest (n_max_gram and zero_count "
                               "must be integers)")
    return manifest


def load_range(path: str | Path) -> tuple[ZeroTable, CacheManifest]:
    """Load a persisted range; verifies version, checksum, the columns, extent,
    and that no zero lies above the last Gram point, the certified anchor of a
    built table.  The stored Z is kept if it passes the `z_sample` check."""
    path = Path(path)
    manifest = load_manifest(path)
    if manifest.version not in _GRAM_HEADERS:
        raise VersionMismatch(f"store version {manifest.version}, "
                              f"supported {', '.join(map(str, _GRAM_HEADERS))}")
    h = _hasher()
    try:
        g = _read_columns(path / "gram.csv", _GRAM_HEADERS[manifest.version], 0,
                          manifest.n_max_gram, h)
        zs = _read_columns(path / "zeros.csv", _ZEROS_HEADER, 1, manifest.zero_count, h)
    except FileNotFoundError as exc:
        raise ChecksumMismatch(f"{exc.filename}: missing from the range") from None
    if h.hexdigest() != manifest.checksum:
        raise ChecksumMismatch(f"{path}: data does not match manifest checksum")
    for fault in (g.parse_fault, zs.parse_fault, g.column_fault(), zs.column_fault()):
        if fault:
            raise fault
    claimed = (manifest.n_max_gram, manifest.zero_count, [manifest.t_max])
    held = (g.rows - 1, zs.rows, [g.last] if g.rows else [])
    if claimed != held:
        raise ChecksumMismatch(f"{path}: manifest (n_max_gram, zero_count, [t_max]) "
                               f"= {claimed}, data {held}")
    (gram, *z_col), (zeros,) = g.values, zs.values
    if zeros.size and not zeros[-1] < gram[-1]:
        raise ChecksumMismatch(f"{path}: zero {fmt_height(zeros[-1])} is not below "
                               "the last Gram point")
    z_gram = None
    if z_col:
        idx = z_sample(gram.size)
        if zeta.hardy_z_many(gram[idx]).tobytes() == z_col[0][idx].tobytes():
            z_gram = z_col[0]
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
