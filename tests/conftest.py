import importlib
import pkgutil
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

import threebraid
from threebraid.braid import AltBraidWord


def clear_library_caches():
    """Empty every lru_cache of the threebraid modules, as a fresh process."""
    for module in pkgutil.iter_modules(threebraid.__path__):
        for value in vars(importlib.import_module(
                f"threebraid.{module.name}")).values():
            getattr(value, "cache_clear", lambda: None)()


@pytest.fixture
def w87():
    return AltBraidWord(((4, 1), (1, 2)))


@pytest.fixture
def w1079():
    return AltBraidWord(((3, 2), (2, 3)))


@pytest.fixture
def g87_matrix():
    return ((-6, 1, 1), (1, -3, 1), (1, 1, -2))


@pytest.fixture
def g1079_matrix():
    return ((-5, 1, 0, 0, 1),
            (1, -2, 1, 0, 0),
            (0, 1, -4, 1, 0),
            (0, 0, 1, -2, 1),
            (1, 0, 0, 1, -2))


# The matrix displayed for the 8_7 example.
A87 = ((0, 0, 1, 2, -1),
       (1, 1, -1, 0, 0),
       (0, 0, 1, -1, 0),
       (0, 1, 1, 1, 3),
       (1, -1, 0, 0, 0))

# The matrix displayed for the 10_79 example, with the first row's head
# corrected to (-1, -1): as printed, that row is neither orthogonal to the
# x row nor compatible with the cycle Gram (see the decisions ledger).
A1079 = ((-1, -1, 0, 1, 1, 0, -1),
         (0, 0, 0, 0, 0, -1, 1),
         (1, 1, 0, 0, 1, 0, -1),
         (0, 0, 0, 1, -1, 0, 0),
         (0, 0, 1, -1, 0, 0, 0),
         (0, 1, 2, 2, 2, 3, 3),
         (1, -1, 0, 0, 0, 0, 0))
