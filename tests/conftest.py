import json
from pathlib import Path

import pytest
from hypothesis import settings

from outbreakminer.ingest import RevisionCache, revision_from_record

FIXTURES = Path(__file__).parent / "fixtures"

# `pytest --hypothesis-profile=long`: random draws, 200 examples for each test
# that does not fix its own count. TestDamagedInputs takes both from the loaded
# profile; under the default profile it keeps 5 derandomized examples a case.
settings.register_profile("long", max_examples=200, derandomize=False)


@pytest.fixture(scope="session")
def fixture_records():
    """Raw API-shaped records for the 10 bundled synthetic revisions."""
    return json.loads((FIXTURES / "fixture_revisions.json").read_text(encoding="utf-8"))


@pytest.fixture(scope="session")
def fixture_revisions(fixture_records):
    return [revision_from_record(r) for r in fixture_records]


@pytest.fixture(scope="session")
def api_pages():
    """Three recorded API response pages with continuation tokens."""
    return json.loads((FIXTURES / "api_pages.json").read_text(encoding="utf-8"))


@pytest.fixture(scope="session")
def ground_truth_path():
    return FIXTURES / "ground_truth.csv"


@pytest.fixture(scope="session")
def rivers_sample_path():
    return FIXTURES / "rivers_sample.csv"


@pytest.fixture
def fixture_cache(tmp_path, fixture_records):
    """A warm cache directory seeded with the bundled revisions."""
    cache = RevisionCache(tmp_path / "cache")
    for record in fixture_records:
        cache.put_record("Example outbreak", record)
    return cache
