import hashlib
import json
import os
import shutil
import struct
from pathlib import Path

import pytest

import gramlab
from gramlab import store
from gramlab.zeros import ZeroTable


def hex_bits(x: float) -> str:
    """x's binary64 bits as 16 lowercase hex digits, as a stored range holds it."""
    return struct.pack(">d", x).hex()


def recheck(path: Path, *names: str) -> None:
    """Write the checked directory at path again through `store.write_checked`:
    its files of names as they stand and its manifest's fields, under a
    checksum that matches them, as other code would."""
    fields = json.loads((path / "manifest.json").read_text())
    del fields["checksum"]
    store.write_checked(path, {name: [(path / name).read_bytes()] for name in names},
                        **fields)


# numpy's float64 loop targets for (tan, log, exp) in a process: every pinned
# float array passes through one of the three, and their last bits move with
# the target.  AVX512_OFF gives the loops an AVX2-only x86 CPU runs.
X86_V4 = ("X86_V4", "X86_V4", "X86_V4")
AVX2 = ("baseline(X86_V2)", "X86_V3", "X86_V3")
AVX512_OFF = {"NPY_DISABLE_CPU_FEATURES": "AVX512_SPR AVX512_ICL X86_V4"}


def simd_target() -> tuple[str, ...]:
    """The float64 loop targets numpy dispatches tan, log and exp to here."""
    from numpy.lib.introspect import opt_func_info

    info = opt_func_info(func_name="^(tan|log|exp)$")
    return tuple(info.get(f, {}).get("dd", {}).get("current") for f in ("tan", "log", "exp"))


def pinned(digests: dict):
    """The entry of `digests` for this process's loop targets; fails naming
    the targets if none is pinned for them."""
    target = simd_target()
    if target not in digests:
        pytest.fail(f"no digest pinned for numpy loop targets {target}")
    return digests[target]


def _digest(*names: str) -> str:
    """Digest of the named gramlab modules."""
    h = hashlib.blake2b(digest_size=8)
    for name in names:
        h.update((Path(gramlab.__file__).parent / name).read_bytes())
    return h.hexdigest()


def count_forks(monkeypatch) -> list[int]:
    """The pids that call os.fork from now on, one entry a fork."""
    forks, fork = [], os.fork

    def counting():
        forks.append(os.getpid())
        return fork()

    monkeypatch.setattr(os, "fork", counting)
    return forks


@pytest.fixture(autouse=True)
def no_child_left():
    """Every child process a test starts has ended and been reaped when it returns."""
    yield
    try:
        left = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return
    pytest.fail(f"a child process outlived the test: waitpid gave {left}")


@pytest.fixture(scope="session", autouse=True)
def cache_root(request, tmp_path_factory) -> Path:
    """The fixture cache, persisted across pytest runs under pytest's own
    cache and keyed by the modules that decide a table's Gram points and
    zeros, the format it is stored in, and the prime sums, so a change to
    them starts a fresh cache; the caches of other digests are removed.  A
    fresh temporary directory when pytest's cache is off (-p no:cacheprovider)."""
    if not hasattr(request.config, "cache"):
        return tmp_path_factory.mktemp("gramlab-cache")
    root = request.config.cache.mkdir("gramlab")
    digest = _digest("theta_gram.py", "zeta.py", "zeros.py", "store.py",
                     "primes.py", "accum.py")
    for old in root.iterdir():
        if old.name != digest:
            shutil.rmtree(old)
    return root / digest


def _cached_table(root: Path, n_max: int) -> ZeroTable:
    return store.cached_table(n_max, root / f"n{n_max}")


@pytest.fixture(scope="session")
def cache_dir(cache_root) -> Path:
    """A persistent cache directory: the partials of the 1e8 sums are stored
    once, then re-checked on a sample."""
    return cache_root / "cache"


@pytest.fixture(scope="session")
def table_small(cache_root) -> ZeroTable:
    """Certified through gram index 1200 (covers the Titchmarsh range)."""
    return _cached_table(cache_root, 1200)


@pytest.fixture(scope="session")
def table_mid(cache_root) -> ZeroTable:
    """Certified through gram index 5100 (covers the classification trio)."""
    return _cached_table(cache_root, 5100)


@pytest.fixture(scope="session")
def table_full(cache_root) -> ZeroTable:
    """Certified through gram index 100030 (covers n <= 1e5 statistics)."""
    return _cached_table(cache_root, 100030)


@pytest.fixture(scope="session")
def cli_cache_dir(table_full, cache_root, cache_dir) -> Path:
    """cache_dir with table_full's range as the range a --cache-dir run loads."""
    zrange = cache_dir / "zrange"
    if not zrange.exists():
        cache_dir.mkdir(parents=True, exist_ok=True)
        zrange.symlink_to(cache_root / "n100030", target_is_directory=True)
    return cache_dir
