"""The package namespace: what `from wavedg import *` binds."""
import types

import wavedg


def test_star_import_binds_no_module():
    namespace = {}
    exec("from wavedg import *", namespace)
    namespace.pop("__builtins__")
    modules = sorted(name for name, val in namespace.items() if isinstance(val, types.ModuleType))
    assert modules == []
    assert sorted(namespace) == sorted(wavedg.__all__)
    assert len(set(wavedg.__all__)) == len(wavedg.__all__)
