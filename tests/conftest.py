from pathlib import Path

import pytest
from hypothesis import settings

from polyspan import GraphContext

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"

# Every property test replays the same examples on every run and keeps
# no example database; each test sets only its own max_examples.
settings.register_profile("polyspan", derandomize=True, deadline=None, database=None)
settings.load_profile("polyspan")


@pytest.fixture
def g1() -> GraphContext:
    # 0 --2--> 1 --3--> 2, plus a direct 0 --7--> 2 that relaxation beats.
    return GraphContext(3, ((0, 1, 2), (0, 2, 7), (1, 2, 3)))


@pytest.fixture
def fixtures_dir() -> Path:
    return FIXTURES
