import inspect

import mapfkit


def test_all_lists_each_public_name_once_in_order():
    # a name dropped from the imports but not from __all__, or the other
    # way round, fails here
    public = [
        name
        for name, value in vars(mapfkit).items()
        if not name.startswith("_") and not inspect.ismodule(value)
    ]
    assert mapfkit.__all__ == sorted(set(mapfkit.__all__))
    assert mapfkit.__all__ == sorted(public)
