import hashlib
import tempfile
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


# persisted across pytest runs and keyed by the modules that decide a table's
# Gram points and zeros and the format it is stored in, so a change to them
# rebuilds; delete the directory to force a rebuild
CACHE_ROOT = (Path(tempfile.gettempdir()) / "gramlab-test-cache-"
              f"{_digest('theta_gram.py', 'zeta.py', 'zeros.py', 'store.py')}")


def _cached_table(n_max: int) -> ZeroTable:
    return store.cached_table(n_max, CACHE_ROOT / f"n{n_max}")


@pytest.fixture(scope="session")
def cache_dir() -> Path:
    """A persistent cache directory, keyed by the modules of the sieve and of
    its sums too: the partials of the 1e8 sums are stored once, then re-checked
    on a sample."""
    return CACHE_ROOT / f"cache-{_digest('primes.py', 'accum.py')}"


@pytest.fixture(scope="session")
def table_small() -> ZeroTable:
    """Certified through gram index 1200 (covers the Titchmarsh range)."""
    return _cached_table(1200)


@pytest.fixture(scope="session")
def table_mid() -> ZeroTable:
    """Certified through gram index 5100 (covers the classification trio)."""
    return _cached_table(5100)


@pytest.fixture(scope="session")
def table_full() -> ZeroTable:
    """Certified through gram index 100030 (covers n <= 1e5 statistics)."""
    return _cached_table(100030)


@pytest.fixture(scope="session")
def cli_cache_dir(table_full, cache_dir) -> Path:
    """cache_dir with table_full's range as the range a --cache-dir run loads."""
    zrange = cache_dir / "zrange"
    if not zrange.exists():
        cache_dir.mkdir(parents=True, exist_ok=True)
        zrange.symlink_to(CACHE_ROOT / "n100030", target_is_directory=True)
    return cache_dir
