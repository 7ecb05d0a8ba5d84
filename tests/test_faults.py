"""Every check can fail: a fault matrix for `verify-paper` and the prime sums.

Each table fault damages a copy of the certified table through Gram index
100030 in one way, keeping its zeros ascending, and names the `verify-paper`
rows at --n-limit 100000 whose status must change against the clean run.  A
fault that no row catches yet is a strict xfail naming the ROADMAP item that
will catch it, so the file lists the blind spots, and a closed one fails as
XPASS until its entry is updated.

Each sidecar fault damages the stored parts of the 1e7 prime sums, or the
sieve that re-checks them, and names what the next warm call must do: raise
ChecksumMismatch, or recompute the sums in full rather than return the
stored ones.
"""

import hashlib
import json
import math
import re
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np
import pytest

from gramlab import accum, regression
from gramlab import primes as pr
from gramlab.errors import ChecksumMismatch
from gramlab.zeros import ZeroTable

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


_PARITY = "ROADMAP item 4: the gram_parity row, (-1)^(n-1) Z(t_n) > 0 iff S(t_n) is even"
_CHECK = "ROADMAP item 7: re-checking a zero against its bracket and Z independently"

FAULTS = [
    Fault("F1_zero_past_its_gram_point", _past_its_gram_point,
          frozenset({"gram_parity"}), _PARITY),
    Fault("F2_two_zeros_deleted", _two_deleted, frozenset({"offset_second_moment_band"})),
    Fault("F3_every_zero_moved_5e-9", _all_moved, frozenset(), _CHECK),
    Fault("F4_z_times_1e-6_noise", _z_noise, frozenset(), _CHECK),
    Fault("F5_z_sign_flipped", _z_sign_flipped, frozenset({"gram_parity"}), _PARITY),
    Fault("F6_zero_moved_between_intervals", _zero_moved_between_intervals,
          frozenset({"gram_parity"}), _PARITY),
]


def _statuses(table: ZeroTable, cache_dir) -> dict[str, str]:
    ctx = regression.RegressionContext(table=table, n_limit=N_LIMIT, cache_dir=str(cache_dir))
    return {r["assertion"]: r["status"] for r in regression.run_paper_regression(ctx).rows}


@pytest.fixture(scope="module")
def clean(table_full, cache_dir) -> dict[str, str]:
    return _statuses(table_full, cache_dir)


def test_clean_run_passes(clean):
    assert Counter(clean.values()) == {"pass": 37, "skip": 2}


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


# ---------------------------------------------------------------------------
# the prime-sum sidecar

X = 10**7                       # 664,579 primes: 6 blocks, of which 0 and 5 are sampled
SIDECAR = f"primes_{X:012d}.sums.json"


@dataclass(frozen=True)
class SidecarFault:
    name: str
    damage: Callable[[Path, pytest.MonkeyPatch], None]
    raises: str | None = None   # the ChecksumMismatch message; None: recomputed in full


def _rewritten(edit) -> Callable[[Path, pytest.MonkeyPatch], None]:
    """A fault that applies edit to the sidecar's contents and writes them
    under a fresh checksum, as other code would."""
    def damage(path, _):
        body = json.loads(path.read_text())
        del body["checksum"]
        edit(body)
        body["checksum"] = hashlib.blake2b(json.dumps(body, sort_keys=True).encode(),
                                           digest_size=8).hexdigest()
        path.write_text(json.dumps(body))
    return damage


def _flipped_byte(path, _):
    raw = path.read_bytes()
    i = raw.index(b'"0x1.') + 8
    path.write_bytes(raw[:i] + bytes([raw[i] ^ 1]) + raw[i + 1 :])


def _cut_json(path, _):
    path.write_bytes(path.read_bytes()[: path.stat().st_size // 2])


def _nudged(body):
    parts = body["partials"]["1 / p"][5]
    parts[0] = math.nextafter(float.fromhex(parts[0]), math.inf).hex()


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


def _other_segment(path, monkeypatch):
    """The sidecar written again with segments of half the size."""
    with monkeypatch.context() as m:
        m.setattr(pr, "_SEGMENT", pr._SEGMENT // 2)
        path.unlink()
        pr.prime_sums(X, (0.2,), cache_dir=path.parent)
    assert json.loads(path.read_text())["segment"] == pr._SEGMENT // 2


SIDECAR_FAULTS = [
    SidecarFault("S1_flipped_byte", _flipped_byte, "damaged prime-sum partials"),
    SidecarFault("S2_bad_json", _cut_json, "damaged prime-sum partials"),
    SidecarFault("S3_partial_dropped", _rewritten(lambda b: b["partials"]["1 / p"].pop()),
                 "damaged prime-sum partials (parts not of 6 blocks)"),
    SidecarFault("S5_sampled_partial_nudged_1_ulp", _rewritten(_nudged)),
    SidecarFault("S8_sieve_drops_a_sampled_prime", _prime_dropped),
    SidecarFault("S9_another_segment", _other_segment),
]


@pytest.mark.parametrize("fault", SIDECAR_FAULTS, ids=lambda f: f.name)
def test_sidecar_fault_is_caught(fault, tmp_path, monkeypatch):
    cold = pr.prime_sums(X, (0.2,), cache_dir=tmp_path)
    spath = tmp_path / SIDECAR
    raw = spath.read_bytes()
    fault.damage(spath, monkeypatch)
    if fault.raises:
        with pytest.raises(ChecksumMismatch, match=re.escape(f"{SIDECAR}: {fault.raises}")):
            pr.prime_sums(X, (0.2,), cache_dir=tmp_path)
        return
    summed, chunk_sum = [], accum._chunk_sum
    monkeypatch.setattr(accum, "_chunk_sum", lambda c, q, r: summed.append(c.size) or chunk_sum(c, q, r))
    pr.prime_sums(X, (0.2,), cache_dir=tmp_path)
    assert sum(summed) >= 3 * 664579                # a full stream, not the sample alone
    # with the sieve mended, the sums and the sidecar are the clean run's
    monkeypatch.undo()
    assert pr.prime_sums(X, (0.2,), cache_dir=tmp_path) == cold
    assert spath.read_bytes() == raw
