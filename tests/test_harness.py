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

import gramlab
from gramlab import cli, primes, regression, store, zeta
from gramlab import ingest as ing
from gramlab.errors import ChecksumMismatch, ParseError, VersionMismatch
from gramlab.reports import Report, render, to_csv, to_json
from gramlab.zeros import HEADROOM, ScanDiagnostics, ZeroTable


def test_save_load_roundtrip(table_small, tmp_path):
    man = store.save_range(table_small, tmp_path / "rng")
    loaded, man2 = store.load_range(tmp_path / "rng")
    assert np.array_equal(loaded.gram, table_small.gram)
    assert np.array_equal(loaded.zeros, table_small.zeros)
    assert np.array_equal(loaded.s_gram, table_small.s_gram)
    assert man2.checksum == man.checksum
    assert man2.version == store.STORE_VERSION == 3
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


def _rewrite(rng: Path, name: str, edit) -> None:
    """Apply edit to the rows of one data file, then make the manifest agree."""
    path = rng / name
    lines = path.read_text().splitlines(keepends=True)
    edit(lines)
    path.write_text("".join(lines))
    mpath = rng / "manifest.json"
    data = json.loads(mpath.read_text())
    data["checksum"] = store._digest((rng / "gram.csv").read_bytes(),
                                     (rng / "zeros.csv").read_bytes())
    mpath.write_text(json.dumps(data))


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


def _move_heights(lines, by):
    for row in range(1, len(lines)):
        _set(lines, row, 1, store.fmt_height(float(_field(lines, row, 1)) + by))


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
                                  loaded.s_gram, loaded.zero_ambiguous))
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
    data = json.loads(mpath.read_text())
    data["version"] = 1
    data["checksum"] = store._digest(gram.read_bytes(), (rng / "zeros.csv").read_bytes())
    mpath.write_text(json.dumps(data))


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
    _rewrite(rng, "zeros.csv", lambda ls: _move_heights(ls, 3e-7))
    row = 1 + store.z_sample(table.gram.size)[-2]
    z_row = np.nextafter(table.z_values()[row - 1], np.inf)
    _rewrite(rng, "gram.csv", lambda ls: _set(ls, row, 2, store.fmt_height(z_row)))


def test_stored_z_that_the_kernel_does_not_reproduce_is_a_version_mismatch(table_small,
                                                                           tmp_path):
    rng = tmp_path / "rng"
    store.save_range(table_small, rng)
    _of_another_kernel(rng, table_small)
    loaded = np.loadtxt(rng / "zeros.csv", delimiter=",", skiprows=1)[:, 1]
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
    assert gram.read_text().startswith("index,t\n0,")
    with pytest.raises(VersionMismatch):
        store.load_range(rng)
    served = store.cached_table(1200, rng)
    assert gram.read_text().startswith("index,t,z\n0,")
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
    assert rep.matched == 0
    assert rep.unmatched_computed == table_small.zeros.size


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
    assert (rep.matched, rep.unmatched_external, rep.unmatched_computed) \
        == (9, 1, zs.size - 9)
    assert (rep.external_count, rep.computed_count) == (10, zs.size)


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
    assert "n_lo <= n_hi" in capsys.readouterr().err


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
    _exits_2_past_the_ceiling(["delta", "--n-lo", "5", "--n-hi", "99999999"],
                              tmp_path, monkeypatch, capsys)


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


def test_warm_verify_paper_resieves_the_sampled_chunks_only(cli_cache_dir, monkeypatch):
    # mertens_sums(1e8), v_xh(1e8, 0.2) and v_xh(1e8, 0.39) come from one
    # sidecar, re-checked by re-sieving 7 of its 49 blocks from their bounds;
    # no other file of the cache dir is opened but the zero range's
    x = primes.SIEVE_CEILING
    primes.prime_sums(x, regression.VXH_GRID[x], cache_dir=cli_cache_dir)  # filled if absent
    spath = cli_cache_dir / f"primes_{x:012d}.sums.json"
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
            and cli_cache_dir / "zrange" not in p.parents} == {spath}
    assert r.stdout == (Path(__file__).parent / "data" / "verify_paper_1e5.json").read_text()


@pytest.mark.parametrize("args", [["--kind", "mertens", "--x", "1e7"],
                                  ["--kind", "vxh", "--x", "1e7", "--h", "0.2"]])
def test_cli_prime_sums_same_cold_warm_and_uncached(tmp_path, args):
    cached = ["--cache-dir", str(tmp_path / "cache"), "primes", *args]
    runs = [_run_cli(cached, tmp_path), _run_cli(cached, tmp_path),
            _run_cli(["primes", *args], tmp_path)]
    assert [r.returncode for r in runs] == [0, 0, 0], runs[0].stderr
    assert runs[0].stdout == runs[1].stdout == runs[2].stdout
    assert sorted(f.name for f in (tmp_path / "cache").iterdir()) == \
        ["primes_000010000000.sums.json"]


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
    ctx = regression.RegressionContext(table=table, n_limit=10, cache_dir=str(cache_dir))
    rows = {r["assertion"]: r for r in regression.run_paper_regression(ctx).rows}
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
    (["moments", "--kind", "adjacent", "--start-n", "1000", "--length-m", "1000"], 2001),
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
