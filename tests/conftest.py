import tempfile
from pathlib import Path

import pytest

from gramlab import store
from gramlab.zeros import ZeroTable

# persisted across pytest runs; delete the directory to force a rebuild
CACHE_ROOT = Path(tempfile.gettempdir()) / "gramlab-test-cache-v1"


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
