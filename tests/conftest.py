"""Settings shared by the whole test suite."""

from hypothesis import settings

# ``pytest tests/test_cli.py -k fuzz --hypothesis-profile=deep`` explores many
# more inputs than tier-1's fixed few (see the fuzz tests in test_cli.py)
settings.register_profile("deep", max_examples=1500, deadline=None)
