import os
from importlib import resources

import pytest

from stratval.charts import load_atlas, missing_charts
from stratval.poset import StratPoset


def data_path(*parts: str) -> str:
    base = resources.files("stratval").joinpath("data")
    return os.path.join(str(base), *parts)


@pytest.fixture(scope="session")
def gr24():
    return StratPoset.load(data_path("gr24", "stratification.json"))


@pytest.fixture(scope="session")
def gr24_atlas(gr24):
    atlas = load_atlas(data_path("gr24", "charts"), gr24)
    assert missing_charts(atlas, gr24) == []
    return atlas


@pytest.fixture(scope="session")
def gr24_ring():
    from stratval.ringmodel import GradedQuotient

    return GradedQuotient.load(data_path("gr24", "ring.json"))


@pytest.fixture(scope="session")
def gr24_workspace():
    from stratval.workspace import load_workspace

    return load_workspace(data_path("gr24"))
