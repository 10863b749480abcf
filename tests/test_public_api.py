"""The package's export list against the names it binds."""

import types

import lcdisc


def test_all_is_sorted_and_unique():
    assert lcdisc.__all__ == sorted(set(lcdisc.__all__))


def test_all_names_the_public_names_bound():
    for name in lcdisc.__all__:
        assert hasattr(lcdisc, name), name
    public = {name for name, value in vars(lcdisc).items()
              if not name.startswith("_")
              and not isinstance(value, types.ModuleType)}
    assert set(lcdisc.__all__) - {"__version__"} == public
