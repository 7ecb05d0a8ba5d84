import hashlib
import shutil
from pathlib import Path

import pytest

import gramlab
from gramlab import store
from gramlab.zeros import ZeroTable


def _digest(*names: str) -> str:
    """Digest of the named gramlab modules."""
    h = hashlib.blake2b(digest_size=8)
    for name in names:
        h.update((Path(gramlab.__file__).parent / name).read_bytes())
    return h.hexdigest()


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
