import sys
from pathlib import Path

# Allow running the suite from a fresh checkout without an install.
SRC = Path(__file__).resolve().parents[1] / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

import pytest  # noqa: E402

from braidhom.presentations import catalog  # noqa: E402


@pytest.fixture(autouse=True)
def _fresh_catalog():
    """Every test starts and ends with an empty catalog memo, so a test
    that stubs a builder sees it called and leaves no stub's result."""
    catalog.cache_clear()
    yield
    catalog.cache_clear()
