"""Every check can fail: a fault matrix for `verify-paper`.

Each fault damages a copy of the certified table through Gram index 100030
in one way, keeping its zeros ascending, and names the `verify-paper` rows at
--n-limit 100000 whose status must change against the clean run.  A fault
that no row catches yet is a strict xfail naming the ROADMAP item that will
catch it, so the file lists the blind spots, and a closed one fails as XPASS
until its entry is updated.
"""

from collections import Counter
from dataclasses import dataclass
from typing import Callable

import numpy as np
import pytest

from gramlab import regression
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
