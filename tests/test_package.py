"""The package's public surface."""

import angiosolve


def test_every_exported_name_resolves():
    missing = [name for name in angiosolve.__all__ if not hasattr(angiosolve, name)]
    assert missing == []
    assert len(set(angiosolve.__all__)) == len(angiosolve.__all__)
