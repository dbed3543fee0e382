import types

import lsfem


def test_all_names_resolve_and_none_is_a_module():
    assert len(set(lsfem.__all__)) == len(lsfem.__all__)
    for name in lsfem.__all__:
        assert hasattr(lsfem, name), name
        assert not isinstance(getattr(lsfem, name), types.ModuleType), name
