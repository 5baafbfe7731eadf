"""The package's lazy export table."""

import canonfactor


def test_every_export_resolves():
    # __all__ is built from the lazy table, so a name whose definition
    # was removed would only fail on first use
    for name in canonfactor.__all__:
        getattr(canonfactor, name)
