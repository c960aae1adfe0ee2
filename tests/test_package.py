from __future__ import annotations

import rescert


def test_every_exported_name_resolves_once():
    names = rescert.__all__
    assert len(set(names)) == len(names)
    missing = [name for name in names if not hasattr(rescert, name)]
    assert missing == []
