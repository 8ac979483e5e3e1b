import gtl


def test_star_import_binds_every_public_name():
    namespace: dict = {}
    exec("from gtl import *", namespace)
    assert len(set(gtl.__all__)) == len(gtl.__all__)
    assert set(gtl.__all__) <= namespace.keys()
