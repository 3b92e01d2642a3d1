"""The package's public surface."""

from __future__ import annotations

import elastomag


def test_every_exported_name_resolves() -> None:
    """Each name in __all__ is an attribute of the package, so that
    `from elastomag import *` and `elastomag.<name>` work for all of them."""
    missing = [name for name in elastomag.__all__ if not hasattr(elastomag, name)]
    assert missing == []
