"""Pytest plugin for the mutant ledger, loaded with ``-p no_shrink``: a
Hypothesis profile without the shrink phase and without the example
database.  A failing example is reported as soon as it is found, so a
mutant is killed in seconds instead of after minutes of shrinking, and
no example from one mutant is replayed against another."""

from hypothesis import Phase, settings

settings.register_profile(
    "mutants", phases=[phase for phase in Phase if phase is not Phase.shrink],
    database=None)
settings.load_profile("mutants")
