"""Fixtures shared by the whole test suite."""

import pytest
from hypothesis import settings

import curvident.delta as delta_mod

# ``pytest tests/test_cli.py -k fuzz --hypothesis-profile=deep`` explores many
# more inputs than tier-1's fixed few (see the fuzz tests in test_cli.py)
settings.register_profile("deep", max_examples=1500, deadline=None)


@pytest.fixture(scope="session", autouse=True)
def session_plan_dir(tmp_path_factory):
    """Delta plan files written during the run go to a temporary directory,
    not beside the package's bytecode.  A test that needs a directory of
    its own overrides this with the ``plan_dir`` fixture."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(delta_mod, "_PLAN_DIR", str(tmp_path_factory.mktemp("delta-plans")))
        yield
