import anarx


def test_every_exported_name_resolves():
    missing = [name for name in anarx.__all__ if not hasattr(anarx, name)]
    assert missing == []
    assert len(set(anarx.__all__)) == len(anarx.__all__)
