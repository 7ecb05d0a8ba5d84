"""Checked directories, the one form of every cache entry, and the stored
range of Gram points, Z at them, and zeros.

A checked directory holds named files and a manifest.json: the caller's
fields and a 64-bit BLAKE2b over the files in order, so a flipped byte is
caught.  `write_checked` removes the old manifest, writes each file beside
its place and renames it in, and writes the manifest last, so a write cut
short leaves no manifest.  `read_checked` checks the manifest's identity
fields (VersionMismatch), then hashes the files _READ_BYTES at a time before
anything parses them (ChecksumMismatch), and hands them back open: the
parsed bytes are the hashed bytes, since no file is written in place.  A
range is one such directory; the prime-sum sidecar of `primes` is another.

A range (store format version 4) holds:

    gram.csv      index,t,z rows: Gram point t_n and Z(t_n) for n = 0..n_max_gram
    zeros.csv     index,t rows: zero ordinates, indexed from 1
    manifest.json version, extent, creation time, checksum

Each data row has a fixed width, such as `000000,40235574f9068e14,bff882566514afd2`:
the index zero-padded to the width of the file's last index, then each
value's IEEE-754 binary64 bits as 16 lowercase hex digits, so no bit passes
through a decimal.  Past the checksum, a load requires each file's header
and rows of its width, index columns that count 0..n_max_gram and
1..zero_count, finite strictly ascending heights, finite Z, the extent the
manifest states, and zeros above t_0 and below the last Gram point.

A stored range is this code's output or it is rebuilt.  A load raises
VersionMismatch for a manifest of another format version, and for a stored Z
that the current kernel does not reproduce bit for bit at `z_sample` (every
Gram index below 512, which covers both Z routes, then every 1024th, and the
last): another kernel moves every value, and its zeros with them; a change at
an unsampled index alone is not detected.  `cached_table` rebuilds such a
range and overwrites it, as it does a miss or a save cut short.  Every fault
of a stored range, whether of its checksum, header, rows, columns or extent,
is a ChecksumMismatch.  ParseError is for external ordinate tables only.

Neither direction holds a whole file: a save encodes _CSV_ROWS rows at a
time, each block one uint8 array, and a load parses them as many at a time,
the row width from the first data row and the row count from the file size,
so a block that does not parse is named by its lines.  A block is decoded by
byte arithmetic, with no lookup table: each hex digit's value from its byte
code, and the index column as its digits times powers of ten.
"""

from __future__ import annotations

import hashlib
import json
import os
from collections.abc import Iterable, Iterator
from contextlib import ExitStack, contextmanager
from dataclasses import dataclass
from datetime import datetime, timezone
from itertools import chain
from pathlib import Path
from typing import BinaryIO

import numpy as np

from . import zeta
from .errors import ChecksumMismatch, VersionMismatch
from .zeros import ZeroTable, certified_table, require_under_ceiling

STORE_VERSION = 4
_GRAM_HEADER = "index,t,z"
_ZEROS_HEADER = "index,t"
_Z_SAMPLE_HEAD = 512     # Gram indices re-evaluated in full: t < 827, both Z routes
_Z_SAMPLE_STRIDE = 1024  # then every this many, and the last
_CSV_ROWS = 4096         # rows per encoded or parsed block
_READ_BYTES = 1 << 16    # bytes per read of a data file while hashing
# a byte -> its two lowercase hex digits
_HEX = np.frombuffer(b"".join(b"%02x" % i for i in range(256)), np.uint8).reshape(256, 2)


@dataclass(frozen=True)
class CacheManifest:
    version: int
    n_max_gram: int
    t_max: float
    zero_count: int
    created: str
    checksum: str


def _hasher():
    """A manifest checksum: a 64-bit BLAKE2b over a checked directory's files, in order."""
    return hashlib.blake2b(digest_size=8)


def _index(lo: int, hi: int, digits: int) -> np.ndarray:
    """The indices lo..hi-1 as rows of ASCII decimal digits, zero-padded to digits."""
    scale = 10 ** np.arange(digits - 1, -1, -1)
    return (np.arange(lo, hi)[:, None] // scale % 10 + ord("0")).astype(np.uint8)


def _csv(header: str, first: int, *columns: np.ndarray) -> Iterator[bytes]:
    """header, then a row for each entry of columns, indexed from first: the
    index zero-padded to the width of the last, then each value's binary64
    bits as 16 hex digits; as blocks of _CSV_ROWS rows."""
    n, k = len(columns[0]), len(columns)
    digits = len(str(first + n - 1))

    def rows(a: int) -> bytes:
        b = min(a + _CSV_ROWS, n)
        block = np.empty((b - a, digits + 17 * k + 1), np.uint8)
        block[:, :digits] = _index(first + a, first + b, digits)
        fields = block[:, digits:-1].reshape(b - a, k, 17)     # a view: ",", 16 digits
        fields[:, :, 0] = ord(",")
        bits = np.stack([c[a:b] for c in columns], axis=1).astype(">f8").view(np.uint8)
        fields[:, :, 1:] = _HEX.take(bits, axis=0).reshape(b - a, k, 16)
        block[:, -1] = ord("\n")
        return block.tobytes()

    return chain([(header + "\n").encode()], map(rows, range(0, n, _CSV_ROWS)))


def z_sample(size: int) -> np.ndarray:
    """The Gram indices at which a stored Z column is re-evaluated on load."""
    n = np.arange(size)
    return n[(n < _Z_SAMPLE_HEAD) | (n % _Z_SAMPLE_STRIDE == 0) | (n == size - 1)]


def write_replacing(path: Path, data: bytes | Iterable[bytes]) -> None:
    """Write data, bytes or byte blocks, beside path and rename it into place;
    a write cut short removes what it wrote.  The one atomic file write."""
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "wb") as fh:
            fh.writelines([data] if isinstance(data, bytes) else data)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def write_checked(path: Path, files: dict[str, Iterable[bytes]], **fields) -> dict:
    """Write files (name -> byte blocks) and their manifest, fields and the
    checksum, as the checked directory at path; returns the manifest."""
    path.mkdir(parents=True, exist_ok=True)
    (path / "manifest.json").unlink(missing_ok=True)
    h = _hasher()
    for name, blocks in files.items():
        write_replacing(path / name, (h.update(block) or block for block in blocks))
    manifest = {**fields, "checksum": h.hexdigest()}
    write_replacing(path / "manifest.json", (json.dumps(manifest, indent=2) + "\n").encode())
    return manifest


def _read_manifest(path: Path, **identity) -> dict:
    """The manifest of the checked directory at path.  VersionMismatch if a
    field of identity holds another value; ChecksumMismatch if the manifest
    is missing or truncated, or lacks one of those fields or its checksum."""
    mpath = path / "manifest.json"
    try:
        data = json.loads(mpath.read_text(encoding="utf-8"))
        for key, want in identity.items():
            if data[key] != want:
                raise VersionMismatch(f"{mpath}: store {key} {data[key]}, supported {want}")
        if type(data["checksum"]) is not str:
            raise ValueError("checksum is not a string")
    except (FileNotFoundError, ValueError, TypeError, KeyError) as exc:  # or truncated
        raise ChecksumMismatch(f"{mpath}: damaged manifest ({exc})") from None
    return data


@contextmanager
def read_checked(path: Path, names: tuple[str, ...], **identity
                 ) -> Iterator[tuple[dict, list[BinaryIO]]]:
    """The manifest of the checked directory at path, by `_read_manifest`, and
    its files of names, open at their start once they match its checksum."""
    manifest = _read_manifest(path, **identity)
    with ExitStack() as stack:
        try:
            files = [stack.enter_context(open(path / name, "rb")) for name in names]
        except FileNotFoundError as exc:
            raise ChecksumMismatch(f"{exc.filename}: missing") from None
        h = _hasher()
        for fh in files:
            while chunk := fh.read(_READ_BYTES):
                h.update(chunk)
            fh.seek(0)
        if h.hexdigest() != manifest["checksum"]:
            raise ChecksumMismatch(f"{path}: data does not match manifest checksum")
        yield manifest, files


def save_range(table: ZeroTable, path: str | Path) -> CacheManifest:
    """Persist a table; its manifest's n_max_gram is the certified index."""
    z = table.z_values()
    return CacheManifest(**write_checked(
        Path(path), {"gram.csv": _csv(_GRAM_HEADER, 0, table.gram, z),
                     "zeros.csv": _csv(_ZEROS_HEADER, 1, table.zeros)},
        version=STORE_VERSION, n_max_gram=int(table.gram.size - 1),
        t_max=float(table.gram[-1]), zero_count=int(table.zeros.size),
        created=datetime.now(timezone.utc).isoformat()))


def _parse(fh, what: str, header: str, first: int) -> list[np.ndarray]:
    """The value columns (height, then any Z) of the data file at fh, which
    opens with header and indexes its rows from first, parsed _CSV_ROWS rows
    at a time from its start (the last row may lack its newline)."""
    if fh.readline().rstrip(b"\n") != header.encode():
        raise ChecksumMismatch(f"{what}: line 1 is not the {header} header")
    start = fh.tell()
    width = len(fh.readline().rstrip(b"\n")) + 1
    rows = -(-(fh.seek(0, os.SEEK_END) - start) // width)
    fh.seek(start)
    k = header.count(",")
    digits = width - 1 - 17 * k
    last = first + rows - 1
    values = [np.empty(rows) for _ in range(k)]
    for a in range(0, rows, _CSV_ROWS):
        n = min(_CSV_ROWS, rows - a)
        raw = fh.read(n * width)
        if len(raw) == n * width - 1:       # only the last block is short: no final newline
            raw += b"\n"
        block = np.frombuffer(raw, np.uint8)
        parsed = digits > 0 and block.size == n * width
        if parsed:
            block = block.reshape(n, width)
            fields = block[:, digits:-1].reshape(n, k, 17)
            # a hex digit's value: c - 48 for 0-9, less 39 more for a-f; any
            # other byte wraps to a value that is 16 or more, or to a letter's
            # value with no letter's offset
            nibbles = fields[:, :, 1:] - np.uint8(48)
            letter = nibbles > 9
            nibbles -= np.uint8(39) * letter
            parsed = ((block[:, -1] == ord("\n")).all() and (fields[:, :, 0] == ord(",")).all()
                      and (nibbles < 16).all() and np.array_equal(nibbles > 9, letter))
        if not parsed:
            raise ChecksumMismatch(f"{what}: lines {a + 2}-{a + n + 1} are not rows "
                                   f"of {k + 1} numbers")
        # the index: decimal digits, zero-padded to the width of the last
        index = block[:, :digits] - np.uint8(48)
        if not (digits == len(str(last)) and (index < 10).all() and np.array_equal(
                index @ 10 ** np.arange(digits - 1, -1, -1), np.arange(first + a, first + a + n))):
            raise ChecksumMismatch(f"{what}: index column is not {first}..{last}")
        # a byte from its two digits: a digit pair read as one little-endian
        # 16-bit word is high + 256 low
        pairs = nibbles.view("<u2")
        bits = ((pairs << 4 | pairs >> 8) & 0xFF).astype(np.uint8)
        for j, column in enumerate(values):
            column[a : a + n] = bits.view(">f8")[:, j, 0]
    if not all(np.isfinite(column).all() for column in values):
        raise ChecksumMismatch(f"{what}: a height or Z value is not finite")
    if not (values[0][1:] > values[0][:-1]).all():
        raise ChecksumMismatch(f"{what}: heights are not strictly ascending")
    return values


def _range_manifest(path: Path, data: dict) -> CacheManifest:
    """A range's manifest fields as a CacheManifest, with integer extents."""
    try:
        manifest = CacheManifest(**data)
        if not all(type(n) is int for n in (manifest.n_max_gram, manifest.zero_count)):
            raise TypeError("n_max_gram and zero_count must be integers")
    except TypeError as exc:
        raise ChecksumMismatch(f"{path / 'manifest.json'}: damaged manifest ({exc})") from None
    return manifest


def load_manifest(path: str | Path) -> CacheManifest:
    """The manifest of the range at path, by `_read_manifest`."""
    return _range_manifest(Path(path), _read_manifest(Path(path), version=STORE_VERSION))


def load_range(path: str | Path) -> tuple[ZeroTable, CacheManifest]:
    """The range at path and its manifest, checked as the module docstring says."""
    path = Path(path)
    with read_checked(path, ("gram.csv", "zeros.csv"), version=STORE_VERSION
                      ) as (data, (g, zs)):
        manifest = _range_manifest(path, data)
        gram, z_gram = _parse(g, "gram.csv", _GRAM_HEADER, 0)
        (zeros,) = _parse(zs, "zeros.csv", _ZEROS_HEADER, 1)
    claimed = (manifest.n_max_gram, manifest.zero_count, [manifest.t_max])
    held = (gram.size - 1, zeros.size, [float(gram[-1])] if gram.size else [])
    if claimed != held:
        raise ChecksumMismatch(f"{path}: manifest (n_max_gram, zero_count, [t_max]) "
                               f"= {claimed}, data {held}")
    if zeros.size and not gram[0] < zeros[0] <= zeros[-1] < gram[-1]:
        raise ChecksumMismatch(f"{path}: zeros {zeros[0]:.17g} to {zeros[-1]:.17g} "
                               "do not lie above t_0 and below the last Gram point")
    idx = z_sample(gram.size)
    if zeta.hardy_z_many(gram[idx]).tobytes() != z_gram[idx].tobytes():
        raise VersionMismatch(f"{path}: stored Z is not the current kernel's")
    return ZeroTable(gram, zeros, z_gram), manifest


def cached_table(n_needed: int, path: str | Path | None) -> ZeroTable:
    """Table certified through Gram index n_needed, through the range at path.

    Loads path when its manifest reaches n_needed; otherwise, or when the range
    is of another format version or kernel (VersionMismatch), builds with
    `certified_table` and saves the result there.  path None caches nothing.
    ResourceError, before the cache is read, past the table ceiling."""
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
