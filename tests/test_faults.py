"""Every check can fail: a fault matrix for `verify-paper`, the stored range
and the prime sums.

Each table fault damages a copy of the certified table through Gram index
100030 in one way, keeping its zeros ascending, and names the `verify-paper`
rows at --n-limit 100000 whose status must change against the clean run.  A
fault that no row catches yet is a strict xfail naming the ROADMAP item that
will catch it, so the file lists the blind spots, and a closed one fails as
XPASS until its entry is updated.

Each store fault damages a saved range of the table through Gram index 1240
and names the exception and message of its load.  A damaged range is a
ChecksumMismatch, and the CLI exits 1 on it with one error line; a range of
another format version is a VersionMismatch, which `cached_table` rebuilds.

Each sidecar fault damages the checked directory of the 1e7 prime sums, its
parts or its manifest, or the sieve that re-checks them, and names what the
next warm call must do: raise ChecksumMismatch, or recompute the sums in full
rather than return the stored ones, and rewrite the sidecar as a clean run
writes it.  `verify-paper` re-checks the 1e8 sidecar in a forked part while
it loads the range, and still reports a damaged range first; a run cut short
while the part runs leaves no child, and the next run is a clean run.
"""

import hashlib
import json
import math
import os
import re
import shutil
import sys
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np
import pytest

from gramlab import accum, cli, regression, store
from gramlab import primes as pr
from gramlab.errors import ChecksumMismatch, GramLabError, VersionMismatch
from gramlab.zeros import ZeroTable

from conftest import count_forks, hex_bits, recheck

N_LIMIT = 100000


@dataclass(frozen=True)
class Fault:
    name: str
    damage: Callable[[ZeroTable], ZeroTable]
    rows: frozenset[str]        # rows whose status must change
    miss: str | None = None     # why no row catches it yet, for a strict xfail


def _with(table: ZeroTable, zeros=None, z=None) -> ZeroTable:
    return ZeroTable(table.gram, table.zeros if zeros is None else zeros,
                     table.z_values() if z is None else z)


def _past_its_gram_point(table: ZeroTable) -> ZeroTable:
    """Zero #50000 moved just past the Gram point above it."""
    zeros = table.zeros.copy()
    above = table.gram[np.searchsorted(table.gram, zeros[49999])]
    zeros[49999] = above + 1e-6
    return _with(table, zeros)


def _two_deleted(table: ZeroTable) -> ZeroTable:
    """Zeros #60000 and #60001 deleted."""
    return _with(table, np.delete(table.zeros, [59999, 60000]))


def _all_moved(table: ZeroTable) -> ZeroTable:
    """Every zero moved by +5e-9, five published half-widths."""
    return _with(table, table.zeros + 5e-9)


def _z_noise(table: ZeroTable) -> ZeroTable:
    """Z at the Gram points times 1 + 1e-6 noise."""
    noise = np.random.default_rng(13).standard_normal(table.gram.size)
    return _with(table, z=table.z_values() * (1 + 1e-6 * noise))


def _z_sign_flipped(table: ZeroTable) -> ZeroTable:
    """The sign of Z(t_70001) flipped."""
    z = table.z_values().copy()
    z[70001] = -z[70001]
    return _with(table, z=z)


def _zero_moved_between_intervals(table: ZeroTable) -> ZeroTable:
    """The zero above t_80010, the one zero of G_80011 = (t_80010, t_80011],
    moved into G_80000: S(t_n + 0) grows by one for n = 80000..80010."""
    g = table.gram
    inside = np.nonzero((table.zeros > g[80010]) & (table.zeros <= g[80011]))[0]
    zeros = np.sort(np.r_[np.delete(table.zeros, inside[0]), 0.5 * (g[79999] + g[80000])])
    return _with(table, zeros)


_CHECK = "ROADMAP item 7: re-checking a zero against its bracket and Z independently"

FAULTS = [
    Fault("F1_zero_past_its_gram_point", _past_its_gram_point,
          frozenset({"gram_parity"})),
    Fault("F2_two_zeros_deleted", _two_deleted, frozenset({"offset_second_moment_band"})),
    Fault("F3_every_zero_moved_5e-9", _all_moved, frozenset(), _CHECK),
    Fault("F4_z_times_1e-6_noise", _z_noise, frozenset(), _CHECK),
    Fault("F5_z_sign_flipped", _z_sign_flipped, frozenset({"gram_parity"})),
    Fault("F6_zero_moved_between_intervals", _zero_moved_between_intervals,
          frozenset({"gram_parity"})),
]


def _statuses(table: ZeroTable, cache_dir) -> dict[str, str]:
    rep = regression.run_paper_regression(table, N_LIMIT, cache_dir=str(cache_dir))
    return {r["assertion"]: r["status"] for r in rep.rows}


@pytest.fixture(scope="module")
def clean(table_full, cache_dir) -> dict[str, str]:
    return _statuses(table_full, cache_dir)


def test_clean_run_passes(clean):
    assert Counter(clean.values()) == {"pass": 38, "skip": 2}


@pytest.mark.parametrize("fault", FAULTS, ids=lambda f: f.name)
def test_fault_damages_a_copy(fault, table_full):
    # outside the xfails, so that a fault which breaks its own promise fails
    zeros, z = table_full.zeros.copy(), table_full.z_values().copy()
    bad = fault.damage(table_full)
    assert (np.diff(bad.zeros) > 0).all() and bad.zeros[-1] < bad.gram[-1]
    assert bad.gram is table_full.gram
    assert bad.zeros.tobytes() != zeros.tobytes() or bad.z_values().tobytes() != z.tobytes()
    assert table_full.zeros.tobytes() == zeros.tobytes()
    assert table_full.z_values().tobytes() == z.tobytes()


@pytest.mark.parametrize("fault", [
    pytest.param(f, id=f.name, marks=[pytest.mark.xfail(strict=True, reason=f.miss)]
                 if f.miss else []) for f in FAULTS])
def test_fault_is_caught(fault, table_full, cache_dir, clean):
    got = _statuses(fault.damage(table_full), cache_dir)
    changed = {name for name in clean if got.get(name) != clean[name]}
    assert changed and changed >= fault.rows


def _exits_1(monkeypatch, capsys, *args) -> None:
    """The CLI run with args exits 1 with one error line."""
    monkeypatch.setattr(sys, "argv", ["gramlab", *args])
    with pytest.raises(SystemExit) as exc:
        cli.entry()
    err = capsys.readouterr().err
    assert exc.value.code == 1
    assert err.startswith("error: ") and err.count("\n") == 1


# ---------------------------------------------------------------------------
# the stored range

@dataclass(frozen=True)
class StoreFault:
    name: str
    damage: Callable[[Path], None]  # applied to the saved range
    raises: type[GramLabError]
    match: str                      # a regular expression the message holds


def _bytes(name: str, edit) -> Callable[[Path], None]:
    """A fault that applies edit to the bytes of one file of the range."""
    def damage(rng):
        path = rng / name
        path.write_bytes(edit(path.read_bytes()))
    return damage


def _manifest(edit) -> Callable[[Path], None]:
    """A fault that applies edit to the manifest's fields."""
    def damage(rng):
        mpath = rng / "manifest.json"
        data = json.loads(mpath.read_text())
        edit(data)
        mpath.write_text(json.dumps(data))
    return damage


def _rows(name: str, edit) -> Callable[[Path], None]:
    """A fault that applies edit to the lines of one data file and writes them
    under a fresh manifest checksum, as other code would."""
    def damage(rng):
        path = rng / name
        lines = path.read_text().splitlines(keepends=True)
        edit(lines)
        path.write_text("".join(lines))
        recheck(rng, "gram.csv", "zeros.csv")
    return damage


def _missing(name: str) -> Callable[[Path], None]:
    return lambda rng: (rng / name).unlink()


def _field(lines, row, col) -> str:
    return lines[row].rstrip("\n").split(",")[col]


def _set(lines, row, col, value) -> None:
    fields = lines[row].rstrip("\n").split(",")
    fields[col] = value
    lines[row] = ",".join(fields) + "\n"


def _swap_heights(lines, i, j) -> None:
    ti, tj = _field(lines, i, 1), _field(lines, j, 1)
    _set(lines, i, 1, tj)
    _set(lines, j, 1, ti)


def _swap_lines(lines, i, j) -> None:
    lines[i], lines[j] = lines[j], lines[i]


def _blank_rows(lines) -> None:
    lines[1:] = ["\n"]


def _first_zero_on_t_0(rng) -> None:
    t_0 = _field((rng / "gram.csv").read_text().splitlines(), 1, 1)
    _rows("zeros.csv", lambda ls: _set(ls, 1, 1, t_0))(rng)


_CHECKSUM = "data does not match manifest checksum"
_DAMAGED_MANIFEST = "manifest.json: damaged manifest"
_EXTENT = "n_max_gram"          # in both the extent and the integer message
_ZERO_SPAN = "do not lie above t_0 and below the last Gram point"

# the range is read 101 bytes and parsed 100 rows at a time, so that a fault
# can straddle blocks and a bad block is named by its lines
STORE_FAULTS = [
    StoreFault("flipped_byte",
               _bytes("gram.csv", lambda b: b[:50] + bytes([b[50] ^ 1]) + b[51:]),
               ChecksumMismatch, _CHECKSUM),
    *(StoreFault(f"{stem}_csv_last_block_byte",
                 _bytes(f"{stem}.csv", lambda b: b[:-3] + b"x" + b[-2:]),
                 ChecksumMismatch, _CHECKSUM) for stem in ("gram", "zeros")),
    # no version is damage, not another format
    *(StoreFault(f"manifest_without_{field}", _manifest(lambda m, f=field: m.pop(f)),
                 ChecksumMismatch, _DAMAGED_MANIFEST) for field in ("checksum", "version")),
    StoreFault("manifest_truncated", _bytes("manifest.json", lambda b: b[:40]),
               ChecksumMismatch, _DAMAGED_MANIFEST),
    *(StoreFault(f"{stem}_csv_missing", _missing(f"{stem}.csv"), ChecksumMismatch,
                 f"{stem}.csv: missing") for stem in ("gram", "zeros")),
    *(StoreFault(f"manifest_{name}", _manifest(lambda m, f=field, v=value: m.update({f: v})),
                 ChecksumMismatch, _EXTENT)
      for name, field, value in [("n_max_gram_200000", "n_max_gram", 200000),
                                 ("n_max_gram_1e15", "n_max_gram", 10**15),
                                 ("n_max_gram_a_string", "n_max_gram", "1240"),
                                 ("zero_count_1", "zero_count", 1),
                                 ("zero_count_1e12", "zero_count", 10**12),
                                 ("zero_count_a_float", "zero_count", 1240.0),
                                 ("t_max_1e6", "t_max", 1e6)]),
    # any other version is another format, read before the fields are checked
    *(StoreFault(f"version_{name}", _manifest(lambda m, v=version: m.update(version=v)),
                 VersionMismatch, f"manifest.json: store version {version}, supported 4")
      for name, version in [("1", 1), ("2", 2), ("3", 3), ("5", 5), ("4_a_string", "4")]),
    StoreFault("gram_csv_bad_header", _rows("gram.csv", lambda ls: _set(ls, 0, 0, "idx")),
               ChecksumMismatch, "gram.csv: line 1 is not the index,t,z header"),
    StoreFault("zeros_csv_bad_row_3", _rows("zeros.csv", lambda ls: _set(ls, 2, 1, "x")),
               ChecksumMismatch, "zeros.csv: lines 2-101 are not rows of 2 numbers"),
    StoreFault("gram_csv_line_501_one_byte_short",
               _rows("gram.csv", lambda ls: ls.__setitem__(500, ls[500][:-2] + "\n")),
               ChecksumMismatch, "gram.csv: lines 402-501 are not rows of 3 numbers"),
    StoreFault("zeros_csv_uppercase_hex_line_700",
               _rows("zeros.csv", lambda ls: _set(ls, 699, 1, _field(ls, 699, 1).upper())),
               ChecksumMismatch, "zeros.csv: lines 602-701 are not rows of 2 numbers"),
    # bytes that the arithmetic decode wraps into a digit's value: "`" to 9
    # as a hex digit, ":" to 10 at an index digit, so "000:" sums to 10
    StoreFault("zeros_csv_backtick_hex_line_300",
               _rows("zeros.csv", lambda ls: _set(ls, 299, 1, "`" + _field(ls, 299, 1)[1:])),
               ChecksumMismatch, "zeros.csv: lines 202-301 are not rows of 2 numbers"),
    StoreFault("gram_csv_index_colon_for_10",
               _rows("gram.csv", lambda ls: _set(ls, 11, 0, "000:")),
               ChecksumMismatch, "gram.csv: index column is not 0..1240"),
    StoreFault("zeros_csv_index_padded_wider",
               _rows("zeros.csv", lambda ls: ls.__setitem__(
                   slice(1, None), ["0" + line for line in ls[1:]])),
               ChecksumMismatch, "zeros.csv: index column is not 1..1240"),
    StoreFault("gram_csv_bad_height_line_901",
               _rows("gram.csv", lambda ls: _set(ls, 900, 1, "1.5x")),
               ChecksumMismatch, "gram.csv: lines 802-901 are not rows of 3 numbers"),
    StoreFault("zeros_csv_bad_height_line_1202",
               _rows("zeros.csv", lambda ls: _set(ls, 1201, 1, "1.5x")),
               ChecksumMismatch, "zeros.csv: lines 1202-1241 are not rows of 2 numbers"),
    StoreFault("gram_csv_blank_line_121", _rows("gram.csv", lambda ls: ls.insert(120, "\n")),
               ChecksumMismatch, "gram.csv: lines 102-201 are not rows of 3 numbers"),
    StoreFault("zeros_csv_blank_line_51", _rows("zeros.csv", lambda ls: ls.insert(50, "\n")),
               ChecksumMismatch, "zeros.csv: lines 2-101 are not rows of 2 numbers"),
    StoreFault("zeros_csv_blank_only", _rows("zeros.csv", _blank_rows),
               ChecksumMismatch, "zeros.csv: lines 2-2 are not rows of 2 numbers"),
    StoreFault("zeros_csv_rows_swapped", _rows("zeros.csv", lambda ls: _swap_lines(ls, 5, 6)),
               ChecksumMismatch, "zeros.csv: index column is not 1..1240"),
    StoreFault("gram_csv_index_7_at_row_3",
               _rows("gram.csv", lambda ls: _set(ls, 3, 0, "0007")),
               ChecksumMismatch, "gram.csv: index column is not 0..1240"),
    StoreFault("zeros_csv_heights_swapped",
               _rows("zeros.csv", lambda ls: _swap_heights(ls, 5, 6)),
               ChecksumMismatch, "zeros.csv: heights are not strictly ascending"),
    StoreFault("gram_csv_height_repeated",
               _rows("gram.csv", lambda ls: _set(ls, 3, 1, _field(ls, 2, 1))),
               ChecksumMismatch, "gram.csv: heights are not strictly ascending"),
    StoreFault("gram_csv_heights_swapped_across_blocks",
               _rows("gram.csv", lambda ls: _swap_heights(ls, 100, 101)),
               ChecksumMismatch, "gram.csv: heights are not strictly ascending"),
    StoreFault("gram_csv_height_nan",
               _rows("gram.csv", lambda ls: _set(ls, 9, 1, hex_bits(math.nan))),
               ChecksumMismatch, "gram.csv: a height or Z value is not finite"),
    StoreFault("gram_csv_z_inf",
               _rows("gram.csv", lambda ls: _set(ls, 9, 2, hex_bits(math.inf))),
               ChecksumMismatch, "gram.csv: a height or Z value is not finite"),
    StoreFault("zeros_csv_height_nan",
               _rows("zeros.csv", lambda ls: _set(ls, 9, 1, hex_bits(math.nan))),
               ChecksumMismatch, "zeros.csv: a height or Z value is not finite"),
    StoreFault("zero_above_the_last_gram_point",
               _rows("zeros.csv", lambda ls: _set(ls, -1, 1, hex_bits(1e6))),
               ChecksumMismatch, _ZERO_SPAN),
    StoreFault("first_zero_below_t_0",
               _rows("zeros.csv", lambda ls: _set(ls, 1, 1, hex_bits(9.5))),
               ChecksumMismatch, _ZERO_SPAN),
    StoreFault("first_zero_on_t_0", _first_zero_on_t_0, ChecksumMismatch, _ZERO_SPAN),
]


@pytest.fixture(scope="module")
def saved(table_small, tmp_path_factory) -> Path:
    rng = tmp_path_factory.mktemp("saved") / "zrange"
    store.save_range(table_small, rng)
    return rng


@pytest.fixture
def damaged(fault, saved, tmp_path, monkeypatch) -> Path:
    """A copy of table_small's saved range as the range of a cache directory,
    damaged by the fault the test is parametrized with."""
    monkeypatch.setattr(store, "_READ_BYTES", 101)
    monkeypatch.setattr(store, "_CSV_ROWS", 100)
    rng = shutil.copytree(saved, tmp_path / "cache" / cli.RANGE_SUBDIR)
    fault.damage(rng)
    return rng


@pytest.mark.parametrize("fault", STORE_FAULTS, ids=lambda f: f.name)
def test_store_fault_is_caught(fault, damaged):
    with pytest.raises(fault.raises, match=fault.match):
        store.load_range(damaged)


@pytest.mark.parametrize("fault", [f for f in STORE_FAULTS if f.raises is ChecksumMismatch],
                         ids=lambda f: f.name)
def test_cli_damaged_caches_exit_1(fault, damaged, monkeypatch, capsys):
    # a damaged range is one error line and exit 1, not a traceback or a rebuild
    _exits_1(monkeypatch, capsys, "--cache-dir", str(damaged.parent),
             "classify", "--n-lo", "1", "--n-hi", "5")


# ---------------------------------------------------------------------------
# the prime-sum sidecar

X = 10**7                       # 664,579 primes: 6 blocks, of which 0 and 5 are sampled
SIDECAR = f"primes_{X:012d}"
PARTS = "parts.json"


@dataclass(frozen=True)
class SidecarFault:
    name: str
    damage: Callable[[Path, pytest.MonkeyPatch], None]  # applied to the sidecar directory
    raises: str | None = None   # the ChecksumMismatch message after SIDECAR; None: recomputed


def _cut(name: str) -> Callable[[Path, pytest.MonkeyPatch], None]:
    def damage(sdir, _):
        path = sdir / name
        path.write_bytes(path.read_bytes()[: path.stat().st_size // 2])
    return damage


def _flipped_byte(sdir, _):
    path = sdir / PARTS
    raw = path.read_bytes()
    i = raw.index(b'"0x1.') + 8
    path.write_bytes(raw[:i] + bytes([raw[i] ^ 1]) + raw[i + 1 :])


def _rewritten(edit) -> Callable[[Path, pytest.MonkeyPatch], None]:
    """A fault that replaces the stored parts with edit of them, written under
    a fresh checksum, as other code would."""
    def damage(sdir, _):
        parts = json.loads((sdir / PARTS).read_text())
        (sdir / PARTS).write_text(json.dumps(edit(parts)))
        recheck(sdir, PARTS)
    return damage


def _nudged(parts):
    block = parts["1 / p"][5]
    block[0] = math.nextafter(float.fromhex(block[0]), math.inf).hex()
    return parts


def _of_limit(sdir, _):
    """The manifest rewritten for another limit, as other code would."""
    mpath = sdir / "manifest.json"
    mpath.write_text(json.dumps({**json.loads(mpath.read_text()), "limit": X + 1}))
    recheck(sdir, PARTS)


def _prime_dropped(_, monkeypatch):
    """A sieve that loses one prime inside block 5, the segment from
    3163 + 4 * 2^21 to 1e7."""
    primes = pr.sieve_primes(X).primes
    lost = primes[np.searchsorted(primes, 3163 + 4 * 2**21) + 100]
    sieve_block = pr._sieve_block

    def dropping(lo, hi, base):
        block = sieve_block(lo, hi, base)
        return block[block != lost]

    monkeypatch.setattr(pr, "_sieve_block", dropping)


def _other_segment(sdir, monkeypatch):
    """The sidecar written again with segments of half the size."""
    with monkeypatch.context() as m:
        m.setattr(pr, "_SEGMENT", pr._SEGMENT // 2)
        pr.prime_sums(X, (0.2,), cache_dir=sdir.parent)
    assert json.loads((sdir / "manifest.json").read_text())["segment"] == pr._SEGMENT // 2


_SUMS_CHECKSUM = ": data does not match manifest checksum"

SIDECAR_FAULTS = [
    SidecarFault("S1_flipped_byte", _flipped_byte, _SUMS_CHECKSUM),
    SidecarFault("S2_bad_json", _cut(PARTS), _SUMS_CHECKSUM),
    SidecarFault("S3_partial_dropped", _rewritten(lambda p: {**p, "1 / p": p["1 / p"][:-1]}),
                 f"/{PARTS}: damaged prime-sum partials (parts not of 6 blocks)"),
    SidecarFault("S4_manifest_cut", _cut("manifest.json"), "/manifest.json: damaged manifest"),
    SidecarFault("S5_sampled_partial_nudged_1_ulp", _rewritten(_nudged)),
    SidecarFault("S6_parts_not_an_object", _rewritten(lambda p: list(p)),
                 f"/{PARTS}: damaged prime-sum partials"),
    # a save cut short leaves no manifest: the sums are recomputed, as a range
    # is rebuilt, though the shared reader refuses the directory
    SidecarFault("S7_manifest_missing", lambda sdir, _: (sdir / "manifest.json").unlink()),
    SidecarFault("S8_sieve_drops_a_sampled_prime", _prime_dropped),
    SidecarFault("S9_another_segment", _other_segment),
    SidecarFault("S10_another_limit", _of_limit),
]


def _listing(sdir: Path) -> dict[str, bytes]:
    return {f.name: f.read_bytes() for f in sdir.iterdir()}


def _count_summed(monkeypatch) -> list[int]:
    summed, chunk_sum = [], accum._chunk_sum
    monkeypatch.setattr(accum, "_chunk_sum",
                        lambda c, q, r: summed.append(c.size) or chunk_sum(c, q, r))
    return summed


@pytest.mark.parametrize("fault", SIDECAR_FAULTS, ids=lambda f: f.name)
def test_sidecar_fault_is_caught(fault, tmp_path, monkeypatch, capsys):
    cold = pr.prime_sums(X, (0.2,), cache_dir=tmp_path)
    sdir = tmp_path / SIDECAR
    raw = _listing(sdir)
    fault.damage(sdir, monkeypatch)
    if fault.raises:
        with pytest.raises(ChecksumMismatch, match=re.escape(SIDECAR + fault.raises)):
            pr.prime_sums(X, (0.2,), cache_dir=tmp_path)
        _exits_1(monkeypatch, capsys, "--cache-dir", str(tmp_path),
                 "primes", "--kind", "mertens", "--x", "1e7")
        return
    summed = _count_summed(monkeypatch)
    pr.prime_sums(X, (0.2,), cache_dir=tmp_path)
    assert sum(summed) >= 3 * 664579                # a full stream, not the sample alone
    # with the sieve mended, the sums and the sidecar are the clean run's
    monkeypatch.undo()
    assert pr.prime_sums(X, (0.2,), cache_dir=tmp_path) == cold
    assert _listing(sdir) == raw


def test_verify_paper_errors_come_as_if_taken_in_turn(saved, cache_dir, tmp_path,
                                                     monkeypatch, capsys):
    """verify-paper takes the 1e8 sums in a forked part while it loads the
    range, yet a damaged range still wins over a damaged sidecar, and a
    damaged sidecar alone gives its own error; conftest's check then finds no
    child process left."""
    x = pr.SIEVE_CEILING
    pr.prime_sums(x, regression.VXH_GRID[x], cache_dir=cache_dir)  # filled if absent
    cache = tmp_path / "cache"
    rng = shutil.copytree(saved, cache / cli.RANGE_SUBDIR)
    _flipped_byte(shutil.copytree(cache_dir / f"primes_{x:012d}", cache / f"primes_{x:012d}"),
                  monkeypatch)                                # under a stale checksum
    gram_csv = rng / "gram.csv"
    clean = gram_csv.read_bytes()
    gram_csv.write_bytes(clean[:-2] + bytes([clean[-2] ^ 1]) + clean[-1:])
    errors = []
    for load in (lambda: store.load_range(rng),
                 lambda: pr.prime_sums(x, regression.VXH_GRID[x], cache_dir=cache)):
        with pytest.raises(ChecksumMismatch) as exc:
            load()
        errors.append(f"error: {exc.value}\n")
    forks = count_forks(monkeypatch)
    monkeypatch.setattr(sys, "argv", ["gramlab", "--cache-dir", str(cache), "verify-paper",
                                      "--n-limit", "1200"])
    for error in errors:            # both damaged, then the sidecar alone
        with pytest.raises(SystemExit) as exc:
            cli.entry()
        assert (capsys.readouterr(), exc.value.code) == (("", error), 1)
        gram_csv.write_bytes(clean)
    assert len(forks) == 2          # the sums of each run; the range loads


def _stalled_write(ready: Path):
    """A write_checked that removes the old manifest, leaves half of a file
    beside its place, as a write cut short does, marks ready and stalls."""
    def write(path, files, **fields):
        path.mkdir(parents=True, exist_ok=True)
        (path / "manifest.json").unlink(missing_ok=True)
        name, blocks = next(iter(files.items()))
        data = b"".join(blocks)
        (path / (name + ".tmp")).write_bytes(data[: len(data) // 2])
        ready.touch()
        time.sleep(60)
    return write


@pytest.mark.parametrize("when", ["at once", "mid-write"])
@pytest.mark.parametrize("error", [RuntimeError, KeyboardInterrupt])
def test_a_verify_paper_cut_short_leaves_no_child(when, error, cache_dir, tmp_path,
                                                 monkeypatch, capsys):
    """An error raised in this process while the sums part runs, at once or
    while the part writes the 1e8 sidecar, kills and reaps the part; the
    next run prints a clean run's bytes and leaves the clean sidecar."""
    x = pr.SIEVE_CEILING
    pr.prime_sums(x, regression.VXH_GRID[x], cache_dir=cache_dir)  # filled if absent
    cache, ready = tmp_path / "cache", tmp_path / "ready"
    forks = count_forks(monkeypatch)

    class CutShort:                 # a table that raises when first read
        def __getattr__(self, name):
            if when == "mid-write":
                for _ in range(3000):
                    if ready.exists():
                        break
                    time.sleep(0.01)
                assert ready.exists()
            raise error("cut short")

    with monkeypatch.context() as mp:
        mp.setattr(pr, "write_checked", _stalled_write(ready))
        with pytest.raises(error, match="cut short"):
            regression.run_paper_regression(CutShort(), 1200, cache_dir=str(cache))
    assert len(forks) == 1
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    monkeypatch.setattr(sys, "argv", ["gramlab", "--cache-dir", str(cache), "--format", "json",
                                      "verify-paper", "--n-limit", "1200"])
    with pytest.raises(SystemExit) as exc:
        cli.entry()
    assert exc.value.code == 0
    assert capsys.readouterr().out == (Path(__file__).parent / "data"
                                       / "verify_paper_1200.json").read_text()
    sidecar = f"primes_{x:012d}"
    assert _listing(cache / sidecar) == _listing(cache_dir / sidecar)


@pytest.mark.parametrize("kind", ["range", "sidecar"])
def test_shared_reader_refuses_a_directory_without_its_manifest(kind, saved, tmp_path):
    if kind == "range":
        path, names = shutil.copytree(saved, tmp_path / "zrange"), ("gram.csv", "zeros.csv")
    else:
        pr.prime_sums(X, (0.2,), cache_dir=tmp_path)
        path, names = tmp_path / SIDECAR, (PARTS,)
    (path / "manifest.json").unlink()
    with pytest.raises(ChecksumMismatch, match=re.escape(_DAMAGED_MANIFEST)):
        with store.read_checked(path, names):
            pass


def test_parent_format_sidecar_is_never_read(tmp_path, monkeypatch):
    # the one-file sidecar that kept its checksum inside its JSON body: a cache
    # holding only that file recomputes the sums once, then serves them warm
    pr.prime_sums(X, (0.2,), cache_dir=tmp_path / "new")
    body = {"limit": X, "segment": pr._SEGMENT,
            "partials": json.loads((tmp_path / "new" / SIDECAR / PARTS).read_text())}
    body["checksum"] = hashlib.blake2b(json.dumps(body, sort_keys=True).encode(),
                                       digest_size=8).hexdigest()
    old = tmp_path / "cache" / f"primes_{X:012d}.sums.json"
    old.parent.mkdir()
    old.write_text(json.dumps(body, indent=1) + "\n")
    raw = old.read_bytes()
    summed = _count_summed(monkeypatch)
    cold = pr.prime_sums(X, (0.2,), cache_dir=old.parent)
    assert sum(summed) == 3 * 664579                # one full stream
    summed.clear()
    assert pr.prime_sums(X, (0.2,), cache_dir=old.parent) == cold
    assert 0 < sum(summed) < 664579                 # the sampled blocks alone
    assert sorted(f.name for f in old.parent.iterdir()) == [SIDECAR, old.name]
    assert old.read_bytes() == raw
    assert _listing(old.parent / SIDECAR) == _listing(tmp_path / "new" / SIDECAR)
