import minkflow


def test_public_names_resolve():
    # A name deleted from its module must leave __all__ with it.
    missing = [name for name in minkflow.__all__
               if not hasattr(minkflow, name)]
    assert missing == []
