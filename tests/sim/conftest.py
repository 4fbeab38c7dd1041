from hypothesis import settings

#: the engine-oracle CI job's budget for ``test_engine_oracle.py``
#: (``--hypothesis-profile engine-oracle``); tier-1 keeps the default
settings.register_profile("engine-oracle", max_examples=20_000, deadline=None)
