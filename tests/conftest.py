import pytest
from hypothesis import settings

from emot import stability

# Property tests draw the same examples on every run, and no example fails
# for running slowly on a loaded host.
settings.register_profile("emot", derandomize=True, deadline=None)
settings.load_profile("emot")


@pytest.fixture(autouse=True)
def fresh_base_solves():
    """Each test starts with no stability base solve kept, so a test that
    counts solves counts the same whatever ran before it."""
    stability._BASES.clear()
