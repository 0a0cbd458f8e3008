import padiclat


def test_public_api_resolves():
    # guards removals from the public API: every exported name must exist
    missing = [name for name in padiclat.__all__ if not hasattr(padiclat, name)]
    assert missing == []
