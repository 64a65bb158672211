"""The public package namespace."""

import qgwave


def test_every_public_name_resolves():
    missing = [name for name in qgwave.__all__ if not hasattr(qgwave, name)]
    assert missing == []
