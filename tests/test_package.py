import types

import ferrersbool


def test_all_is_the_public_surface():
    for name in ferrersbool.__all__:
        assert hasattr(ferrersbool, name), name
    # every public non-module name the root binds is exported, and no other
    bound = {
        name
        for name, value in vars(ferrersbool).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert sorted(ferrersbool.__all__) == sorted(bound)
