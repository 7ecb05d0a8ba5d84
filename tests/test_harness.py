import builtins
import dataclasses
import importlib.util
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, settings, strategies as st

import gramlab
from gramlab import cli, primes, regression, store, zeta
from gramlab import zeros as zr
from gramlab import ingest as ing
from gramlab.errors import ChecksumMismatch, ParseError, VersionMismatch
from gramlab.gram_law import IntervalRecord
from gramlab.reports import Report, render, to_csv, to_json
from gramlab.zeros import (BRACKET_HALF_WIDTH, HEADROOM, CriticalZero, ScanDiagnostics,
                           ZeroTable)

from conftest import hex_bits, recheck


def test_save_load_roundtrip(table_small, tmp_path):
    man = store.save_range(table_small, tmp_path / "rng")
    loaded, man2 = store.load_range(tmp_path / "rng")
    assert np.array_equal(loaded.gram, table_small.gram)
    assert np.array_equal(loaded.zeros, table_small.zeros)
    assert np.array_equal(loaded.s_gram, table_small.s_gram)
    assert man2.checksum == man.checksum
    assert man2.version == store.STORE_VERSION == 4
    assert json.loads((tmp_path / "rng" / "manifest.json").read_text()).keys() \
        == {"version", "n_max_gram", "t_max", "zero_count", "created", "checksum"}
    assert man2.zero_count == table_small.zeros.size


def test_heights_roundtrip_binary64(table_small, tmp_path):
    store.save_range(table_small, tmp_path / "rng")
    text = (tmp_path / "rng" / "zeros.csv").read_text()
    assert text.startswith("index,t\n")
    assert (tmp_path / "rng" / "gram.csv").read_text().startswith("index,t,z\n")
    loaded, _ = store.load_range(tmp_path / "rng")
    assert loaded.zeros.tobytes() == table_small.zeros.tobytes()
    assert loaded.gram.tobytes() == table_small.gram.tobytes()
    assert loaded.z_values().tobytes() == table_small.z_values().tobytes()


def _through_the_codec(header: str, first: int, *columns: np.ndarray) -> list[np.ndarray]:
    """columns written as one data file by the block writer, then parsed back,
    7 rows a block."""
    with pytest.MonkeyPatch.context() as m:
        m.setattr(store, "_CSV_ROWS", 7)
        fh = io.BytesIO(b"".join(store._csv(header, first, *columns)))
        return store._parse(fh, "data.csv", header, first)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.integers(0, 2**64 - 1), max_size=40))
def test_every_finite_bit_pattern_roundtrips(patterns):
    # -0.0, the smallest subnormal and the largest finite value, then the drawn ones
    values = np.array([1 << 63, 1, 0x7FEF_FFFF_FFFF_FFFF, *patterns], np.uint64).view(float)
    z = values[np.isfinite(values)]
    _, z_back = _through_the_codec(store._GRAM_HEADER, 0, np.arange(z.size, dtype=float), z)
    (heights,) = _through_the_codec(store._ZEROS_HEADER, 1, np.unique(z))
    assert z_back.tobytes() == z.tobytes()
    assert heights.tobytes() == np.unique(z).tobytes()


def _rewrite(rng: Path, name: str, edit) -> None:
    """Apply edit to the rows of one data file, then make the manifest agree."""
    path = rng / name
    lines = path.read_text().splitlines(keepends=True)
    edit(lines)
    path.write_text("".join(lines))
    recheck(rng, "gram.csv", "zeros.csv")


def _field(lines, row, col):
    return lines[row].rstrip("\n").split(",")[col]


def _set(lines, row, col, value):
    fields = lines[row].rstrip("\n").split(",")
    fields[col] = value
    lines[row] = ",".join(fields) + "\n"


def test_streamed_store_is_blind_to_block_size(table_small, tmp_path, monkeypatch):
    # rows straddle both the written and the read blocks, which move no byte or bit
    store.save_range(table_small, tmp_path / "whole")
    monkeypatch.setattr(store, "_CSV_ROWS", 7)
    monkeypatch.setattr(store, "_READ_BYTES", 101)
    rng = tmp_path / "rng"
    man = store.save_range(table_small, rng)
    for name in ("gram.csv", "zeros.csv"):
        assert (rng / name).read_bytes() == (tmp_path / "whole" / name).read_bytes()
    assert man.checksum == store.load_manifest(tmp_path / "whole").checksum
    loaded, _ = store.load_range(rng)
    assert loaded.gram.tobytes() == table_small.gram.tobytes()
    assert loaded.zeros.tobytes() == table_small.zeros.tobytes()
    assert loaded.z_gram.tobytes() == table_small.z_values().tobytes()


@pytest.mark.parametrize("row", range(5, 9))
def test_order_is_checked_across_read_blocks(table_small, tmp_path, monkeypatch, row):
    # a parse block holds three rows, so one of these swaps straddles blocks
    monkeypatch.setattr(store, "_READ_BYTES", 101)
    monkeypatch.setattr(store, "_CSV_ROWS", 3)
    rng = tmp_path / "rng"
    store.save_range(table_small, rng)

    def swap(lines):
        ta, tb = _field(lines, row, 1), _field(lines, row + 1, 1)
        _set(lines, row, 1, tb)
        _set(lines, row + 1, 1, ta)

    _rewrite(rng, "gram.csv", swap)
    with pytest.raises(ChecksumMismatch, match="gram.csv: heights are not strictly"):
        store.load_range(rng)


def _move_heights(lines, heights, by):
    for row, t in enumerate(heights, start=1):
        _set(lines, row, 1, hex_bits(t + by))


def test_unterminated_last_row_and_header_only_zeros_load(table_small, tmp_path,
                                                          monkeypatch):
    monkeypatch.setattr(store, "_READ_BYTES", 101)
    rng = tmp_path / "rng"
    store.save_range(table_small, rng)
    for name in ("gram.csv", "zeros.csv"):
        _rewrite(rng, name, lambda ls: ls.append(ls.pop().rstrip("\n")))
    loaded, _ = store.load_range(rng)
    assert loaded.gram.tobytes() == table_small.gram.tobytes()
    assert loaded.zeros.tobytes() == table_small.zeros.tobytes()
    bare = ZeroTable(table_small.gram[:1], table_small.zeros[:0], table_small.z_values()[:1])
    store.save_range(bare, rng)
    assert (rng / "zeros.csv").read_text() == "index,t\n"
    for tail in ("\n", ""):
        _rewrite(rng, "zeros.csv", lambda ls: ls.__setitem__(0, "index,t" + tail))
        loaded, man = store.load_range(rng)
        assert man.zero_count == loaded.zeros.size == 0
        assert loaded.gram.tobytes() == bare.gram.tobytes()


def test_store_peak_memory_is_flat(table_full, tmp_path):
    """save_range formats and writes, and load_range reads and parses, a block
    at a time: neither holds a whole file, and a load makes only the arrays of
    the table it returns."""
    import tracemalloc

    rng = tmp_path / "rng"
    table_full.z_values()
    tracemalloc.start()
    try:
        store.save_range(table_full, rng)
        save_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    tracemalloc.start()
    try:
        loaded, _ = store.load_range(rng)
        load_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    held = sum(a.nbytes for a in (loaded.gram, loaded.zeros, loaded.z_gram,
                                  loaded.s_gram))
    assert save_peak < 2 * 2**20
    assert load_peak - held < 3 * 2**20


def test_warm_load_evaluates_z_only_at_the_sample(cli_cache_dir, monkeypatch):
    # the 1e5 range keeps its stored Z after checking it at 610 heights
    seen = []
    many = zeta.hardy_z_many

    def counting(ts):
        seen.append(np.size(ts))
        return many(ts)

    monkeypatch.setattr(zeta, "hardy_z_many", counting)
    loaded, _ = store.load_range(cli_cache_dir / "zrange")
    z = loaded.z_values()
    assert loaded.certified_n >= 100030 and store.z_sample(loaded.gram.size).size == 610
    assert 0 < sum(seen) <= 610
    monkeypatch.undo()
    idx = np.arange(0, z.size, 97)
    assert z[idx].tobytes() == zeta.hardy_z_many(loaded.gram[idx]).tobytes()


def _as_version_1(rng: Path, table: ZeroTable) -> None:
    """Rewrite a saved range in the first format: gram.csv without the Z column."""
    gram = rng / "gram.csv"
    gram.write_text("".join(line.rsplit(",", 1)[0] + "\n"
                            for line in gram.read_text().splitlines()))
    mpath = rng / "manifest.json"
    mpath.write_text(json.dumps({**json.loads(mpath.read_text()), "version": 1}))
    recheck(rng, "gram.csv", "zeros.csv")


def _as_format_2(rng: Path, table: ZeroTable) -> None:
    """Rewrite a saved range's manifest as format 2 wrote it: the data files
    are the same bytes, and the manifest also holds method and epsilon."""
    mpath = rng / "manifest.json"
    data = json.loads(mpath.read_text())
    mpath.write_text(json.dumps({
        "version": 2, **{k: data[k] for k in ("n_max_gram", "t_max", "zero_count")},
        "method": "riemann_siegel+euler_maclaurin", "epsilon": 0.0001,
        **{k: data[k] for k in ("created", "checksum")}}, indent=2) + "\n")


def _of_another_kernel(rng: Path, table: ZeroTable) -> None:
    """Move every stored zero by 3e-7, 300 published half-widths, and one
    sampled stored Z value by an ulp, as another kernel would; the checksum
    is made to agree."""
    _rewrite(rng, "zeros.csv", lambda ls: _move_heights(ls, table.zeros, 3e-7))
    row = 1 + store.z_sample(table.gram.size)[-2]
    z_row = np.nextafter(table.z_values()[row - 1], np.inf)
    _rewrite(rng, "gram.csv", lambda ls: _set(ls, row, 2, hex_bits(z_row)))


def test_stored_z_that_the_kernel_does_not_reproduce_is_a_version_mismatch(table_small,
                                                                           tmp_path):
    rng = tmp_path / "rng"
    store.save_range(table_small, rng)
    _of_another_kernel(rng, table_small)
    rows = (rng / "zeros.csv").read_text().splitlines()[1:]
    loaded = np.frombuffer(bytes.fromhex("".join(row.split(",")[1] for row in rows)), ">f8")
    assert np.abs(loaded - table_small.zeros - 3e-7).max() < 1e-12
    with pytest.raises(VersionMismatch, match="stored Z"):
        store.load_range(rng)


def test_version_1_range_loads_and_recomputes_z(table_small, tmp_path):
    # format 1 kept no Z column and has no reader now: load_range refuses it as
    # another version, and cached_table serves it rebuilt, with Z recomputed and
    # kept in the current format
    rng = tmp_path / "rng"
    store.save_range(table_small, rng)
    _as_version_1(rng, table_small)
    gram = rng / "gram.csv"
    assert gram.read_text().startswith("index,t\n0000,")
    with pytest.raises(VersionMismatch):
        store.load_range(rng)
    served = store.cached_table(1200, rng)
    assert gram.read_text().startswith("index,t,z\n0000,")
    loaded, man = store.load_range(rng)
    assert man.version == store.STORE_VERSION
    for table in (served, loaded):
        assert table.gram.tobytes() == table_small.gram.tobytes()
        assert table.zeros.tobytes() == table_small.zeros.tobytes()
        assert table.z_values().tobytes() == zeta.hardy_z_many(table.gram).tobytes()


def _rebuilt_once(table_small, rng: Path, monkeypatch, spoil) -> None:
    """Spoil a saved range; cached_table must rebuild it once for the need at
    hand, overwrite it in the current format and serve a fresh build's table."""
    store.save_range(table_small, rng)
    spoil(rng, table_small)
    built = []
    certified = store.certified_table

    def counting(n):
        built.append(n)
        return certified(n)

    monkeypatch.setattr(store, "certified_table", counting)
    served = store.cached_table(1000, rng)
    assert built == [1000]
    assert store.load_manifest(rng).version == store.STORE_VERSION
    again = store.cached_table(1000, rng)
    assert built == [1000]
    monkeypatch.undo()
    fresh = certified(1000)
    for table in (served, again):
        assert table.gram.tobytes() == fresh.gram.tobytes()
        assert table.zeros.tobytes() == fresh.zeros.tobytes()
        assert table.z_values().tobytes() == fresh.z_values().tobytes()


@pytest.mark.parametrize("spoil", [pytest.param(_as_version_1, id="version_1")])
def test_range_without_a_kept_z_is_rewritten_once(table_small, tmp_path, monkeypatch,
                                                  spoil):
    # a version-1 range kept no Z: it is rebuilt once and rewritten with one, so
    # the next call builds nothing
    _rebuilt_once(table_small, tmp_path / "rng", monkeypatch, spoil)


@pytest.mark.parametrize("spoil", [
    pytest.param(_as_format_2, id="format_2"),
    pytest.param(_of_another_kernel, id="foreign_z")])
def test_range_of_another_format_or_kernel_is_rebuilt_once(table_small, tmp_path,
                                                           monkeypatch, spoil):
    # a range that is not this code's output is a miss: rebuilt for the need at
    # hand and overwritten in the current format, so the next call builds nothing
    _rebuilt_once(table_small, tmp_path / "rng", monkeypatch, spoil)


def test_interrupted_save_leaves_no_manifest(table_small, tmp_path, monkeypatch):
    # a save cut short after its first data file must not leave the old manifest
    # over new data: the next cached_table rebuilds and serves
    rng = tmp_path / "rng"
    store.save_range(table_small, rng)
    write = store.write_replacing
    written = []

    class Killed(Exception):
        pass

    def dying(path, data):
        if written:
            raise Killed
        written.append(path.name)
        write(path, data)

    monkeypatch.setattr(store, "write_replacing", dying)
    shorter = ZeroTable(table_small.gram[:601], table_small.zeros[:600],
                        table_small.z_values()[:601])
    with pytest.raises(Killed):
        store.save_range(shorter, rng)
    monkeypatch.undo()
    assert written == ["gram.csv"] and not (rng / "manifest.json").exists()
    served = store.cached_table(1000, rng)
    assert served.certified_n >= 1000
    loaded, _ = store.load_range(rng)
    assert loaded.gram.tobytes() == served.gram.tobytes()
    assert loaded.zeros.tobytes() == served.zeros.tobytes()


def test_ingest_known_ordinates(table_small, tmp_path):
    path = tmp_path / "ext.txt"
    path.write_text("\n".join(f"{t:.6f}" for t in table_small.zeros[:100]) + "\n")
    rep = ing.ingest_external_table(path, table_small)
    assert rep.matched == 100
    assert rep.unmatched_external == 0
    assert rep.max_abs_diff <= 1e-4


def test_ingest_empty_file(table_small, tmp_path):
    path = tmp_path / "empty.txt"
    path.write_text("")
    rep = ing.ingest_external_table(path, table_small)
    assert rep == ing.MatchReport(0, 0, 0, 0.0, 0, 0)     # no span: no computed zero


def test_ingest_descending_rejected(table_small, tmp_path):
    path = tmp_path / "desc.txt"
    path.write_text("14.13\n25.01\n21.02\n")
    with pytest.raises(ParseError) as exc:
        ing.ingest_external_table(path, table_small)
    assert exc.value.line == 3


def test_ingest_garbage_line_number(table_small, tmp_path):
    path = tmp_path / "bad.txt"
    for bad in ("not-a-number", "nan", "inf"):
        path.write_text(f"14.13\n{bad}\n")
        with pytest.raises(ParseError) as exc:
            ing.ingest_external_table(path, table_small)
        assert exc.value.line == 2


def test_ingest_unmatched_on_both_sides(table_small, tmp_path):
    # the first ten zeros less the fifth, plus one ordinate midway between
    # the seventh and eighth: one unmatched on each side, nine matched
    zs = table_small.zeros
    ext = np.sort(np.r_[np.delete(zs[:10], 4), 0.5 * (zs[6] + zs[7])])
    path = tmp_path / "ext.txt"
    path.write_text("\n".join(f"{t:.6f}" for t in ext) + "\n")
    rep = ing.ingest_external_table(path, table_small)
    # the computed zeros are those of the file's span: the first ten
    assert (rep.matched, rep.unmatched_external, rep.unmatched_computed) == (9, 1, 1)
    assert (rep.external_count, rep.computed_count) == (10, 10)


def test_ingest_counts_the_zeros_of_the_span_only(table_small, tmp_path):
    # zeros within match_tol of [first, last] count, and none further out
    zs = table_small.zeros
    path = tmp_path / "ext.txt"
    path.write_text(f"{float(zs[10]) + 0.5e-4!r}\n{float(zs[12]) - 0.5e-4!r}\n")
    counts = [(r.matched, r.unmatched_computed, r.computed_count)
              for r in (ing.ingest_external_table(path, table_small, tol)
                        for tol in (0.0, 1e-4))]
    assert counts == [(0, 1, 1), (2, 1, 3)]


def test_ingest_comments_and_blanks(table_small, tmp_path):
    path = tmp_path / "c.txt"
    path.write_text("# header\n\n14.134725\n21.022040\n")
    rep = ing.ingest_external_table(path, table_small)
    assert rep.matched == 2


def test_report_rendering_deterministic():
    rep = Report(kind="moment")
    rep.add("op", {"a": 1}, x=1.0 / 3.0, n=7, flag=True, text="hi", nothing=None)
    c1, j1 = to_csv(rep), to_json(rep)
    c2, j2 = to_csv(rep), to_json(rep)
    assert c1 == c2 and j1 == j2
    assert c1.splitlines()[0] == "x,n,flag,text,nothing"
    assert "0.33333333333333331" in c1
    assert c1.endswith("\n") and "\r" not in c1
    with pytest.raises(ValueError):
        render(rep, "xml")


# the directory holding the imported gramlab package, absolute so that the
# subprocess finds it from any working directory
_PACKAGE_ROOT = str(Path(gramlab.__file__).resolve().parent.parent)


def _run_cli(args, cwd):
    pythonpath = [_PACKAGE_ROOT]
    if os.environ.get("PYTHONPATH"):
        pythonpath.append(os.environ["PYTHONPATH"])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(pythonpath)}
    return subprocess.run(
        [sys.executable, "-m", "gramlab.cli", *args],
        capture_output=True, text=True, cwd=cwd, env=env)


def test_cli_gram_and_exit_codes(tmp_path):
    r = _run_cli(["gram", "--n-lo", "0", "--n-hi", "3"], tmp_path)
    assert r.returncode == 0
    lines = r.stdout.strip().splitlines()
    assert lines[0] == "index,t"
    assert lines[1].startswith("0,9.66690805")

    r = _run_cli(["primes", "--kind", "vxh", "--x", "1000", "--h", "0.1"], tmp_path)
    assert r.returncode == 2  # h ln x <= 2: precondition

    r = _run_cli(["gram", "--n-lo", "-3", "--n-hi", "2"], tmp_path)
    assert r.returncode == 2

    r = _run_cli(["primes", "--kind", "mertens", "--x", "100"], tmp_path)
    assert r.returncode == 0
    assert r.stdout.splitlines()[0] == "sum_logp_over_p,sum_recip_p,ln_x"


@pytest.mark.parametrize("args", [["classify", "--n-lo", "0", "--n-hi", "5"],
                                  ["classify", "--n-lo", "5", "--n-hi", "3"],
                                  ["delta", "--n-lo", "0", "--n-hi", "3"],
                                  ["delta", "--n-lo", "5", "--n-hi", "3"],
                                  ["nu", "--upper-n", "0"]])
def test_cli_malformed_range_exits_2(args, monkeypatch, capsys):
    # a bad lower bound or order is a precondition error, not an uncertified range
    monkeypatch.setattr(sys, "argv", ["gramlab", *args])
    with pytest.raises(SystemExit) as exc:
        cli.entry()
    assert exc.value.code == 2
    assert capsys.readouterr().err == f"error: {_RANGE_MESSAGES[args[0]]}\n"


_RANGE_MESSAGES = {
    "classify": "interval range must satisfy 1 <= n_lo <= n_hi",
    "delta": "zero index range must satisfy 1 <= n_lo <= n_hi",
    "nu": "Invalid value for '--upper-n': 0 is not in the range x>=1.",
    "zeros": "require 7 < t_lo < t_hi"}


@pytest.mark.parametrize("args", [["classify", "--n-lo", "0", "--n-hi", "5"],
                                  ["delta", "--n-lo", "0", "--n-hi", "5"],
                                  ["nu", "--upper-n", "0"],
                                  ["zeros", "--t-lo", "50", "--t-hi", "10"]])
def test_cli_rejected_ranges_obtain_no_table(args, tmp_path, capsys):
    # each command checks its arguments before it builds, reads or saves a table
    cache = tmp_path / "cache"
    assert _gramlab(["--cache-dir", str(cache), *args], capsys) == (
        "", f"error: {_RANGE_MESSAGES[args[0]]}\n", 2)
    assert not cache.exists()


def _exits_2_past_the_ceiling(args, tmp_path, monkeypatch, capsys):
    """The CLI exits 2 naming the ceiling, and builds and caches nothing."""
    def no_build(cls, n_max, z_eval=None):
        raise AssertionError(f"built {n_max}")

    monkeypatch.setattr(ZeroTable, "build", classmethod(no_build))
    monkeypatch.setattr(sys, "argv", ["gramlab", "--cache-dir", str(tmp_path / "cache"),
                                      *args])
    with pytest.raises(SystemExit) as exc:
        cli.entry()
    assert exc.value.code == 2
    assert "exceeds ceiling" in capsys.readouterr().err
    assert not (tmp_path / "cache").exists()


def test_cli_index_past_the_table_ceiling_exits_2(tmp_path, monkeypatch, capsys):
    # verify-paper checks its limit before its prime sums start: no sidecar either
    for args in (["delta", "--n-lo", "5", "--n-hi", "99999999"],
                 ["verify-paper", "--n-limit", "2000001"]):
        _exits_2_past_the_ceiling(args, tmp_path, monkeypatch, capsys)


@pytest.mark.parametrize("command", ["zeros 1e50", "zeros 1.7e308", "ingest 1e300"])
def test_cli_height_past_the_table_ceiling_exits_2(command, tmp_path, monkeypatch, capsys):
    # theta(t) reaches inf near the largest float; the index is refused before rounding
    name, height = command.split()
    args = ["zeros", "--t-lo", "20", "--t-hi", height]
    if name == "ingest":
        (tmp_path / "ordinates.txt").write_text(f"14.134725\n{height}\n")
        args = ["ingest", str(tmp_path / "ordinates.txt")]
    _exits_2_past_the_ceiling(args, tmp_path, monkeypatch, capsys)


def test_cli_gram_window_past_the_ceiling_exits_2(monkeypatch, capsys):
    calls = []
    monkeypatch.setattr(cli, "gram_points", lambda *a: calls.append(a))
    monkeypatch.setattr(sys, "argv", ["gramlab", "gram", "--n-hi", "1000000000"])
    with pytest.raises(SystemExit) as exc:
        cli.entry()
    assert exc.value.code == 2
    assert "exceeds ceiling" in capsys.readouterr().err
    assert calls == []


def test_cli_threads_other_than_one_exits_2(monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", ["gramlab", "--threads", "2", "gram", "--n-hi", "1"])
    with pytest.raises(SystemExit) as exc:
        cli.entry()
    assert exc.value.code == 2
    assert "--threads" in capsys.readouterr().err


def test_cli_gram_high_window():
    r = CliRunner().invoke(cli.main, ["gram", "--n-lo", "250000000", "--n-hi", "250010000"])
    assert r.exit_code == 0, r.output
    lines = r.output.splitlines()
    assert len(lines) == 1 + 10001
    assert lines[1].startswith("250000000,") and lines[-1].startswith("250010000,")


def test_cli_gram_window_is_the_slice_of_the_table_solve():
    """`gram` prints a window with the bits of the solve from n = 0 that a
    build uses: 165 of these 401 heights differed when a solve stopped once
    every point of the call was within tolerance."""
    runner = CliRunner()
    window = runner.invoke(cli.main, ["gram", "--n-lo", "50000", "--n-hi", "50400"])
    whole = runner.invoke(cli.main, ["gram", "--n-lo", "0", "--n-hi", "50400"])
    assert window.exit_code == whole.exit_code == 0
    assert window.output.splitlines()[1:] == whole.output.splitlines()[-401:]


def test_cli_zeros_uses_cache(tmp_path):
    cache = tmp_path / "cache"
    r = _run_cli(["--cache-dir", str(cache), "zeros", "--t-lo", "8", "--t-hi", "50"],
                 tmp_path)
    assert r.returncode == 0
    assert (cache / "zrange" / "manifest.json").exists()
    body = r.stdout.strip().splitlines()
    assert body[0] == "index,t,bracket_width,certified,ambiguous"
    assert len(body) == 1 + 10  # ten zeros below 50

    manifest = (cache / "zrange" / "manifest.json").read_bytes()
    r2 = _run_cli(["--cache-dir", str(cache), "zeros", "--t-lo", "8", "--t-hi", "50"],
                  tmp_path)
    assert r2.stdout == r.stdout
    # a rebuild would rewrite the manifest with a new creation time
    assert (cache / "zrange" / "manifest.json").read_bytes() == manifest


# stdout of `--format json verify-paper --n-limit 1200`, checked in so that
# a change to any report byte shows up as a test failure
_VERIFY_PAPER_1200 = Path(__file__).parent / "data" / "verify_paper_1200.json"


def test_cli_verify_paper_deterministic(tmp_path):
    cache = tmp_path / "cache"
    args = ["--cache-dir", str(cache), "--format", "json", "verify-paper",
            "--n-limit", "1200"]
    r1 = _run_cli(args, tmp_path)
    r2 = _run_cli(args, tmp_path)
    assert r1.returncode == 0
    assert r1.stdout == r2.stdout
    assert r1.stdout == _VERIFY_PAPER_1200.read_text()
    payload = json.loads(r1.stdout)
    statuses = {row["status"] for row in payload["rows"]}
    assert statuses <= {"pass", "skip"}


def test_cli_verify_paper_1e5_pinned(cli_cache_dir, tmp_path):
    r = _run_cli(["--format", "json", "--cache-dir", str(cli_cache_dir), "verify-paper",
                  "--n-limit", "100000"], tmp_path)
    assert r.returncode == 0, r.stderr
    assert r.stdout == (Path(__file__).parent / "data" / "verify_paper_1e5.json").read_text()


def _gramlab(args, capsys):
    """`gramlab args` in process: its stdout, its stderr and its exit code."""
    code = 0
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sys, "argv", ["gramlab", *args])
        try:
            cli.entry()
        except SystemExit as exc:
            code = exc.code
    out, err = capsys.readouterr()
    return out, err, code


_R = ["--start-n", "1000", "--length-m", "500"]
_MOMENT_COMMANDS = [
    ["moments", "--kind", "block", *_R, "--shift-m", "3", "--order-k", "2"],
    ["moments", "--kind", "adjacent", *_R, "--order-k", "2"],
    ["moments", "--kind", "first", *_R],
    ["moments", "--kind", "counts", *_R],
    ["moments", "--kind", "alternating", *_R, "--order-k", "2"],
    ["moments", "--kind", "selberg-even", *_R, "--order-k", "2"],
    ["moments", "--kind", "selberg-odd", *_R, "--order-k", "2"],
    ["moments", "--kind", "residual", *_R, "--order-k", "2"],
    ["moments", "--kind", "alternating", *_R, "--order-k", "0"],
    ["moments", "--kind", "adjacent", *_R, "--order-k", "14"],  # bound past float range
    ["--epsilon", "5e-4", "moments", "--kind", "block", *_R, "--shift-m", "3000"],  # main term
    ["moments", "--kind", "adjacent", "--start-n", "1", "--length-m", "500"],
    ["titchmarsh", "--upper-n", "0"],
    ["titchmarsh", "--upper-n", "1000"],
]
_REPORT_COMMANDS = [
    ["gram", "--n-lo", "0", "--n-hi", "5"],
    ["gram", "--n-lo", "0", "--n-hi", "2000000"],
    ["zeros", "--t-lo", "8", "--t-hi", "50"],
    ["zeros", "--t-lo", "100", "--t-hi", "101"],    # no zero: the kind line
    ["classify", "--n-lo", "120", "--n-hi", "130"],
    ["delta", "--n-lo", "120", "--n-hi", "140"],
    ["nu", "--upper-n", "1000"],
    ["primes", "--kind", "mertens", "--x", "1000"],
    ["primes", "--kind", "vxh", "--x", "1e6", "--h", "0.2"],
    ["primes", "--kind", "vy", "--t", "100", "--y", "50"],
    ["primes", "--kind", "diagonal", "--y", "50"],
    ["primes", "--kind", "diagonal", "--order-k", "2", "--y", "50"],
    ["primes", "--kind", "mertens"],
    ["primes", "--kind", "vxh", "--x", "1e6"],
    ["primes", "--kind", "vxh", "--h", "0.2"],
    ["primes", "--kind", "vy", "--t", "100"],
    ["primes", "--kind", "vy", "--y", "50"],
    ["primes", "--kind", "diagonal"],
]
_DATA = Path(__file__).parent / "data"


def _transcript(commands, cache: Path, capsys) -> str:
    """`$ gramlab <args>`, then its stdout, its stderr lines marked `2> `, and
    `[exit <code>]`, for each command in csv and then in json, run with
    --cache-dir cache"""
    parts = []
    for args in [[*fmt, *cmd] for fmt in ([], ["--format", "json"]) for cmd in commands]:
        out, err, code = _gramlab(["--cache-dir", str(cache), *args], capsys)
        err = "".join(f"2> {line}\n" for line in err.splitlines())
        parts.append(f"$ gramlab {' '.join(args)}\n{out}{err}[exit {code}]\n")
    return "".join(parts)


@pytest.mark.parametrize("commands, pinned", [(_MOMENT_COMMANDS, "moment_reports.txt"),
                                              (_REPORT_COMMANDS, "command_reports.txt")],
                         ids=["moments", "commands"])
def test_cli_reports_pinned(commands, pinned, table_mid, cache_root, tmp_path, capsys):
    (tmp_path / "zrange").symlink_to(cache_root / "n5100", target_is_directory=True)
    assert _transcript(commands, tmp_path, capsys) == (_DATA / pinned).read_text()


_INGEST_COMMANDS = [
    ["ingest", "first3.txt"],
    ["ingest", "gaps.txt"],
    ["ingest", "empty.txt"],
    ["ingest", "first3.txt", "--match-tol", "0"],
    ["ingest", "first3.txt", "--match-tol", "inf"],
]


def _ordinate_files(zeros, where: Path) -> None:
    """The files of _INGEST_COMMANDS: the first three zeros; the first ten less
    the fifth, with one ordinate between the seventh and eighth; none."""
    gaps = np.sort(np.r_[np.delete(zeros[:10], 4), 0.5 * (zeros[6] + zeros[7])])
    for name, ts in (("first3.txt", zeros[:3]), ("gaps.txt", gaps), ("empty.txt", [])):
        (where / name).write_text("".join(f"{t:.6f}\n" for t in ts))


def test_cli_ingest_reports_pinned(table_mid, cache_root, tmp_path, monkeypatch, capsys):
    _ordinate_files(table_mid.zeros, tmp_path)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "zrange").symlink_to(cache_root / "n5100", target_is_directory=True)
    assert _transcript(_INGEST_COMMANDS, tmp_path, capsys) \
        == (_DATA / "ingest_reports.txt").read_text()


@pytest.mark.parametrize("name", ["first3.txt", "gaps.txt", "empty.txt"])
def test_cli_ingest_report_is_the_same_from_any_cache(name, table_small, cli_cache_dir,
                                                      tmp_path, monkeypatch, capsys):
    # the computed zeros of the file's span, not of whatever table the cache
    # holds; the 1e5 range's zeros lie within BRACKET_HALF_WIDTH of a smaller
    # build's, not on them, so its max_abs_diff may differ by that much
    _ordinate_files(table_small.zeros, tmp_path)
    monkeypatch.chdir(tmp_path)
    plain, cold, warm = (_gramlab([*cache, "ingest", name], capsys)
                         for cache in ([], ["--cache-dir", "cold"],
                                       ["--cache-dir", str(cli_cache_dir)]))
    assert plain == cold and plain[1:] == warm[1:] == ("", 0)
    assert (tmp_path / "cold").exists() == (name != "empty.txt")   # empty: no table read
    (header, *rows), (_, *warm_rows) = plain[0].splitlines(), warm[0].splitlines()
    assert header.split(",") == [f.name for f in dataclasses.fields(ing.MatchReport)]
    row, warm_row = (dict(zip(header.split(","), r.split(","))) for r in rows + warm_rows)
    assert abs(float(row.pop("max_abs_diff")) - float(warm_row.pop("max_abs_diff"))) \
        <= 2 * BRACKET_HALF_WIDTH
    counts = {"first3.txt": "3,0,0,3,3", "gaps.txt": "9,1,1,10,10",
              "empty.txt": "0,0,0,0,0"}[name]
    assert ",".join(row.values()) == ",".join(warm_row.values()) == counts


@pytest.mark.parametrize("kind, shift", [("first", "3000000"), ("adjacent", "200000"),
                                         ("counts", "-500")])
def test_cli_moments_shift_is_read_by_block_only(kind, shift, tmp_path, capsys):
    # only --kind block reads --shift-m: the others neither build its table,
    # nor hit the ceiling through it, nor stop short of N + M by it
    args = ["moments", "--kind", kind, "--start-n", "1000", "--length-m", "10"]
    cache = tmp_path / "cache"
    shifted = _gramlab(["--cache-dir", str(cache), *args, "--shift-m", shift], capsys)
    assert shifted == (_gramlab(args, capsys)[0], "", 0)
    manifest = json.loads((cache / "zrange" / "manifest.json").read_text())
    assert manifest["n_max_gram"] <= 1010 + HEADROOM


@pytest.mark.parametrize("args, record", [
    (["zeros", "--t-lo", "8", "--t-hi", "50"], CriticalZero),
    (["classify", "--n-lo", "1", "--n-hi", "20"], IntervalRecord)])
def test_cli_record_rows_are_the_record_fields(args, record, table_small, cache_root,
                                               tmp_path, capsys):
    """zeros, classify (and ingest, above) print each field of their record in order."""
    (tmp_path / "zrange").symlink_to(cache_root / "n1200", target_is_directory=True)
    out, err, code = _gramlab(["--cache-dir", str(tmp_path), *args], capsys)
    assert (err, code) == ("", 0)
    assert out.splitlines()[0].split(",") == [f.name for f in dataclasses.fields(record)]


@pytest.mark.parametrize("args, field, value", [
    (["--epsilon", "1e-50", "moments", "--kind", "adjacent", *_R],
     "bound", "9.3353878804393188e+168"),
    (["moments", "--kind", "alternating", *_R, "--order-k", "400"], "bound", "inf"),
    (["moments", "--kind", "alternating", "--start-n", "3", "--length-m", "5",
      "--order-k", "400"], "bound", "inf"),
    (["moments", "--kind", "selberg-even", "--start-n", "3", "--length-m", "5",
      "--order-k", "200"], "main_term", "1.0146163838450219e-30")],
    ids=["adjacent eps 1e-50", "alternating k 400", "alternating k 400 N 3",
         "selberg-even k 200 N 3"])
def test_cli_moments_at_extreme_epsilon_and_order_report(args, field, value, table_mid,
                                                        cache_root, tmp_path, capsys):
    """A constant, a factorial quotient or a power past the float range ends in a
    report, not an OverflowError: a bound or main term past it reads inf."""
    (tmp_path / "zrange").symlink_to(cache_root / "n5100", target_is_directory=True)
    out, err, code = _gramlab(["--cache-dir", str(tmp_path), *args], capsys)
    assert (err, code) == ("", 0)
    header, row = out.splitlines()
    assert dict(zip(header.split(","), row.split(",")))[field] == value


_RANGE_MESSAGE = "require N >= 3, M >= 1, m >= 0, k >= 0"


@pytest.mark.parametrize("args, message", [
    (["moments", "--kind", "first", "--start-n", "1000", "--length-m", "0"], _RANGE_MESSAGE),
    (["moments", "--kind", "adjacent", "--start-n", "1", "--length-m", "500"], _RANGE_MESSAGE),
    (["moments", "--kind", "block", *_R, "--shift-m", "-1"], _RANGE_MESSAGE),
    (["moments", "--kind", "block", *_R, "--order-k", "0"],
     "block_difference_moment requires k >= 1"),
    (["moments", "--kind", "counts", "--start-n", "1000", "--length-m", "0"],
     "interval range must satisfy 1 <= n_lo <= n_hi"),
    (["moments", "--kind", "first", "--start-n", "-5", "--length-m", "500"],
     "first_moment requires N >= 0"),
    (["moments", "--kind", "alternating", *_R, "--order-k", "-1"], _RANGE_MESSAGE),
    (["moments", "--kind", "selberg-odd", *_R, "--order-k", "0"],
     "selberg_delta_moment requires k >= 1"),
    (["moments", "--kind", "residual", *_R, "--order-k", "0"],
     "residual_moments requires k >= 1"),
    (["titchmarsh", "--upper-n", "-3"],
     "Invalid value for '--upper-n': -3 is not in the range x>=1.")])
def test_cli_rejected_moments_obtain_no_table(args, message, tmp_path, capsys):
    cache = tmp_path / "cache"
    assert _gramlab(["--cache-dir", str(cache), *args], capsys) == ("", f"error: {message}\n", 2)
    assert not cache.exists()       # no zrange/ was built, saved or read


@pytest.mark.parametrize("epsilon", ["0.5", "nan"])
@pytest.mark.parametrize("args", [
    ["verify-paper", "--n-limit", "1200"],
    ["verify-paper", "--n-limit", "20000"],
    ["moments", "--kind", "counts", *_R],
    ["moments", "--kind", "first", *_R],
    ["moments", "--kind", "adjacent", *_R],
    ["moments", "--kind", "selberg-even", *_R],
    ["titchmarsh", "--upper-n", "1000"],
    ["classify", "--n-lo", "1", "--n-hi", "100"]])
def test_cli_epsilon_is_checked_before_any_command(args, epsilon, tmp_path, capsys):
    cache = tmp_path / "cache"
    out, err, code = _gramlab(["--cache-dir", str(cache), "--epsilon", epsilon, *args],
                              capsys)
    assert (out, err, code) == ("", "error: epsilon must lie in the open interval "
                                "(0, 1e-3)\n", 2)
    assert not cache.exists()     # nothing was built or read


def _bad(message: str, *args: str):
    return pytest.param(list(args), message, id=" ".join(args))


_X_MIN, _CEILING = "x >= 2", "exceeds ceiling"
_BAD_NUMBERS = [
    *(_bad(message, "primes", "--kind", "mertens", "--x", x)
      for x, message in (("nan", _X_MIN), ("inf", _CEILING), ("1", _X_MIN))),
    *(_bad(_X_MIN, "primes", "--kind", "vxh", "--x", x, "--h", "0.2")
      for x in ("nan", "-inf", "0")),
    _bad(_CEILING, "primes", "--kind", "vxh", "--x", "inf", "--h", "0.2"),
    *(_bad("0 < h < 0.4", "primes", "--kind", "vxh", "--x", "1e6", "--h", h)
      for h in ("nan", "inf", "0.5")),
    *(_bad("finite t", "primes", "--kind", "vy", "--t", t, "--y", "10")
      for t in ("nan", "inf", "-inf")),
    # a finite t whose phase t ln 47 float64 resolves no finer than VY_PHASE_STEP
    *(_bad("float64 step of t ln p", "primes", "--kind", "vy", "--t", t, "--y", "50")
      for t in ("1e17", "1e300")),
    *(_bad(message, "primes", "--kind", "vy", "--t", "10", "--y", y)
      for y, message in (("nan", "y >= 2"), ("inf", _CEILING), ("1", "y >= 2"))),
    *(_bad(message, "primes", "--kind", "diagonal", "--y", y)
      for y, message in (("nan", "y >= 2"), ("inf", _CEILING), ("1", "y >= 2"))),
    *(_bad(message, "primes", "--kind", "diagonal", "--order-k", k, "--y", "50")
      for k, message in (("nan", "--order-k"), ("inf", "--order-k"), ("3", "k = 1 or 2"))),
    *(_bad("match_tol", "ingest", "ORDINATES", "--match-tol", tol)
      for tol in ("nan", "inf", "-1")),
    _bad("line 2: not UTF-8 text", "ingest", "NOT_UTF8"),
    _bad("require a finite t_hi", "zeros", "--t-lo", "8", "--t-hi", "inf"),
]


@pytest.mark.parametrize("args, message", _BAD_NUMBERS)
def test_cli_prime_and_ingest_numbers_out_of_domain_exit_2(args, message, tmp_path, capsys):
    """NaN, an infinity or a finite value out of domain, in each numeric option
    of `primes` and `ingest`, an ordinate file that is not UTF-8, and an
    infinite `zeros` height: one error line naming the requirement, exit 2,
    and nothing sieved into or built under the cache directory."""
    files = {"ORDINATES": tmp_path / "ordinates.txt", "NOT_UTF8": tmp_path / "not_utf8.txt"}
    files["ORDINATES"].write_text("14.134725\n21.022040\n")
    files["NOT_UTF8"].write_bytes(b"14.13\n\xff\xfe\n")
    args = [str(files.get(a, a)) for a in args]
    cache = tmp_path / "cache"
    out, err, code = _gramlab(["--cache-dir", str(cache), *args], capsys)
    assert (out, code) == ("", 2)
    assert err.startswith("error: ") and err.count("\n") == 1 and message in err, err
    assert not cache.exists()


def test_warm_verify_paper_resieves_the_sampled_chunks_only(cli_cache_dir, monkeypatch):
    # mertens_sums(1e8), v_xh(1e8, 0.2) and v_xh(1e8, 0.39) come from one
    # sidecar, re-checked by re-sieving 7 of its 49 blocks from their bounds;
    # no other file of the cache dir is opened but the zero range's.  The sums
    # run in process, where the spies see them, not in a forked part
    x = primes.SIEVE_CEILING
    primes.prime_sums(x, regression.VXH_GRID[x], cache_dir=cli_cache_dir)  # filled if absent
    sdir = cli_cache_dir / f"primes_{x:012d}"
    # the base primes <= 10^4, then one block per 2^21 numbers from 10001
    edges = [0, *range(10001, x + 1, 2**21), x + 1]
    blocks = list(zip(edges, edges[1:]))
    assert len(blocks) == 49
    sieved, opened = [], []
    sieve_block, real_open = primes._sieve_block, io.open

    def sieving(lo, hi, base):
        sieved.append((lo, hi))
        return sieve_block(lo, hi, base)

    def opening(file, *args, **kwargs):
        opened.append(Path(file) if isinstance(file, (str, os.PathLike)) else file)
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr(zr, "_may_fork", lambda: False)
    monkeypatch.setattr(primes, "_sieve_block", sieving)
    monkeypatch.setattr(io, "open", opening)
    monkeypatch.setattr(builtins, "open", opening)
    r = CliRunner().invoke(cli.main, ["--format", "json", "--cache-dir", str(cli_cache_dir),
                                      "verify-paper", "--n-limit", "100000"])
    monkeypatch.undo()
    assert r.exit_code == 0, r.output
    assert [s for s in sieved if s in blocks] == blocks[::8]        # 0, 8, ..., 48: the last
    assert all(s in blocks or s[1] <= 10**6 + 1 for s in sieved)    # the smaller x's sieves
    assert {p for p in opened if isinstance(p, Path) and cli_cache_dir in p.parents
            and cli_cache_dir / "zrange" not in p.parents} == {sdir / "manifest.json",
                                                                sdir / "parts.json"}
    assert r.stdout == (Path(__file__).parent / "data" / "verify_paper_1e5.json").read_text()


@pytest.mark.parametrize("args", [["--kind", "mertens", "--x", "1e7"],
                                  ["--kind", "vxh", "--x", "1e7", "--h", "0.2"]])
def test_cli_prime_sums_same_cold_warm_and_uncached(tmp_path, args):
    cached = ["--cache-dir", str(tmp_path / "cache"), "primes", *args]
    runs = [_run_cli(cached, tmp_path), _run_cli(cached, tmp_path),
            _run_cli(["primes", *args], tmp_path)]
    assert [r.returncode for r in runs] == [0, 0, 0], runs[0].stderr
    assert runs[0].stdout == runs[1].stdout == runs[2].stdout
    assert sorted(f.name for f in (tmp_path / "cache").iterdir()) == ["primes_000010000000"]


def test_cold_and_warm_verify_paper_leave_two_checked_directories(tmp_path):
    # the zero range and the 1e8 prime-sum sidecar, each with its manifest and
    # no temporary file, and a warm run leaves the same
    cache = tmp_path / "cache"
    listings = []
    for _ in range(2):
        r = _run_cli(["--cache-dir", str(cache), "verify-paper", "--n-limit", "1200"], tmp_path)
        assert r.returncode == 0, r.stderr
        listings.append(sorted(f.relative_to(cache).as_posix() for f in cache.rglob("*")))
    assert listings[0] == listings[1] == [
        "primes_000100000000", "primes_000100000000/manifest.json",
        "primes_000100000000/parts.json",
        "zrange", "zrange/gram.csv", "zrange/manifest.json", "zrange/zeros.csv"]


def test_cli_verify_paper_n_limit_floor(tmp_path):
    # interval additivity draws pairs below index 3, so it skips at 1 and 2
    cache = tmp_path / "cache"
    for n_limit in ("1", "2"):
        r = _run_cli(["--cache-dir", str(cache), "--format", "json", "verify-paper",
                      "--n-limit", n_limit], tmp_path)
        assert r.returncode == 0, r.stderr
        rows = {row["assertion"]: row for row in json.loads(r.stdout)["rows"]}
        assert rows["interval_additivity"]["status"] == "skip"
        assert rows["interval_additivity"]["detail"] == "insufficient range"
    # the limit bounds every row: Z(t_1..t_15) is read only from 15 on
    for n_limit, status in (("14", "skip"), ("15", "pass")):
        r = _run_cli(["--cache-dir", str(cache), "--format", "json", "verify-paper",
                      "--n-limit", n_limit], tmp_path)
        assert r.returncode == 0, r.stderr
        rows = {row["assertion"]: row for row in json.loads(r.stdout)["rows"]}
        assert rows["a_positive_n1_15"]["status"] == status
    r = _run_cli(["verify-paper", "--n-limit", "0"], tmp_path)
    assert r.returncode == 2
    assert "n-limit" in r.stderr


def test_short_table_skips_the_rows_past_it(cache_dir):
    table = ZeroTable.build(10)
    assert table.certified_n == 10
    rep = regression.run_paper_regression(table, 10, cache_dir=str(cache_dir))
    rows = {r["assertion"]: r for r in rep.rows}
    for name in ("a_positive_n1_15", "one_zero_per_interval_n1_15"):   # G_1..G_15
        assert (rows[name]["status"], rows[name]["detail"]) == ("skip", "insufficient range")
    assert rows["gram1895_ordinate_3"]["status"] == "pass"
    assert rows["nu_identities"]["status"] == "pass"
    assert "fail" not in {r["status"] for r in rows.values()}


def test_cli_classify_json(tmp_path):
    r = _run_cli(["--format", "json", "classify", "--n-lo", "1", "--n-hi", "15"],
                 tmp_path)
    assert r.returncode == 0
    rows = json.loads(r.stdout)["rows"]
    assert len(rows) == 15
    assert all(row["sgl"] and row["gl"] for row in rows)


def test_cli_cache_irregular_top(tmp_path):
    # classify to n = 87 builds to Gram index 127, which is irregular, so the
    # built table is certified only to the last regular anchor below it
    anchor = ZeroTable.build(127).certified_n
    assert anchor < 127
    args = ["classify", "--n-lo", "1", "--n-hi", "87"]
    plain = _run_cli(args, tmp_path)
    assert plain.returncode == 0
    cache = tmp_path / "cache"
    cold = _run_cli(["--cache-dir", str(cache), *args], tmp_path)
    assert cold.returncode == 0, cold.stderr
    assert cold.stdout == plain.stdout
    manifest = json.loads((cache / "zrange" / "manifest.json").read_text())
    assert manifest["n_max_gram"] == anchor
    warm = _run_cli(["--cache-dir", str(cache), *args], tmp_path)
    assert warm.returncode == 0
    assert warm.stdout == cold.stdout


@pytest.mark.parametrize("args, n_read", [
    (["moments", "--kind", "adjacent", "--start-n", "1000", "--length-m", "1000"], 2000),
    (["delta", "--n-lo", "1", "--n-hi", "1000"], 1000)])
def test_cli_saves_no_range_past_its_headroom(tmp_path, args, n_read):
    # the commands ask for the Gram index they read; certified_table adds HEADROOM
    r = CliRunner().invoke(cli.main, ["--cache-dir", str(tmp_path), *args])
    assert r.exit_code == 0, r.output
    manifest = json.loads((tmp_path / "zrange" / "manifest.json").read_text())
    assert n_read <= manifest["n_max_gram"] <= n_read + HEADROOM


_BENCH = Path(__file__).resolve().parents[1] / "bench"


def test_bench_tracer_layers_resolve():
    # the traced benchmark rebinds every name in LAYERS by getattr, so a
    # renamed or deleted public function would crash `--trace 1`
    path = _BENCH / "tracer.py"
    spec = importlib.util.spec_from_file_location("gramlab_bench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = []
    for layer, groups in tracer.LAYERS.items():
        home = importlib.import_module(f"gramlab.{layer}")
        for names in groups.values():
            for name in names:
                owner = home
                for part in name.split("."):
                    owner = getattr(owner, part, None)
                if owner is None:
                    missing.append(f"gramlab.{layer}.{name}")
    assert not missing


def test_bench_reads_what_gramlab_provides(table_small, tmp_path):
    # the rest of what the benchmark's code reads of gramlab by name: the
    # ScanDiagnostics fields behind the zeros.* metrics, the files whose sizes
    # give store.bytes_*, and the CLI options the workloads pass
    tracer = (_BENCH / "tracer.py").read_text()
    fields = set(re.findall(r"\bd\.(\w+)", tracer))
    assert fields == {"blocks", "densified_blocks", "max_depth", "failed_blocks"}
    assert fields <= {f.name for f in dataclasses.fields(ScanDiagnostics)}
    store.save_range(table_small, tmp_path / "rng")
    written = set(re.findall(r'"(\w+\.(?:csv|json))"', tracer))
    assert {"gram.csv", "zeros.csv"} <= written
    assert all((tmp_path / "rng" / name).is_file() for name in written)
    assert '"--threads", "1"' in (_BENCH / "workloads.py").read_text()
    r = CliRunner().invoke(cli.main, ["--threads", "1", "gram", "--n-hi", "1"])
    assert r.exit_code == 0, r.output
