"""Test-suite settings shared by every test module.

The ``@given`` tests draw their examples from a fixed seed
(``derandomize=True``), so a run repeats the previous run's examples and a
failure shows on every run, not only on the one that drew it. With that
setting hypothesis keeps no example database.
"""

from hypothesis import settings

settings.register_profile("repeatable", derandomize=True)
settings.load_profile("repeatable")
