import steindelta


def test_every_exported_name_resolves():
    missing = [name for name in steindelta.__all__ if not hasattr(steindelta, name)]
    assert missing == []
    assert len(set(steindelta.__all__)) == len(steindelta.__all__)


def test_star_import_is_clean():
    namespace = {}
    exec("from steindelta import *", namespace)
    assert set(steindelta.__all__) <= set(namespace)
