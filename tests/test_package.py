"""The package namespace: what ``from sphereflow import *`` binds."""

from types import ModuleType

import sphereflow


def test_all_names_resolve_and_none_is_a_module():
    names = sphereflow.__all__
    assert len(names) == len(set(names))
    for name in names:
        # a submodule in __all__ would rebind a caller's ``mesh`` or ``flow``
        assert not isinstance(getattr(sphereflow, name), ModuleType), name
    namespace = {}
    exec("from sphereflow import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(names)
