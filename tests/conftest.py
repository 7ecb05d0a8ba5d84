import hashlib
import tempfile
from pathlib import Path

import pytest

import gramlab
from gramlab import store
from gramlab.zeros import ZeroTable


def _kernel_digest() -> str:
    """Digest of the modules that decide a table's Gram points and zeros."""
    h = hashlib.blake2b(digest_size=8)
    for name in ("theta_gram.py", "zeta.py", "zeros.py"):
        h.update((Path(gramlab.__file__).parent / name).read_bytes())
    return h.hexdigest()


# persisted across pytest runs and keyed by the kernel that built it, so a
# change to that kernel rebuilds; delete the directory to force a rebuild
CACHE_ROOT = Path(tempfile.gettempdir()) / f"gramlab-test-cache-{_kernel_digest()}"


def _cached_table(n_max: int) -> ZeroTable:
    return store.cached_table(n_max, CACHE_ROOT / f"n{n_max}")


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
