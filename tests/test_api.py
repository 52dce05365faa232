"""The package's public namespace matches its ``__all__``."""

import types

import navsteer


def test_all_entries_resolve_and_are_unique():
    names = navsteer.__all__
    assert len(names) == len(set(names))
    missing = [name for name in names if not hasattr(navsteer, name)]
    assert missing == []


def test_every_public_name_is_listed():
    public = {name for name, value in vars(navsteer).items()
              if not name.startswith("_")
              and not isinstance(value, types.ModuleType)}
    assert public - set(navsteer.__all__) == set()
