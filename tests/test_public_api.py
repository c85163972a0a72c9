"""The package's public names: `from pada_lab import *` works, and every
name in `pada_lab.__all__` resolves, so no export outlives its code."""

import pada_lab


def test_star_import_binds_every_public_name():
    namespace: dict = {}
    exec("from pada_lab import *", namespace)
    for name in pada_lab.__all__:
        assert namespace[name] is getattr(pada_lab, name)
