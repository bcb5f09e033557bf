import quadham


def test_every_exported_name_resolves():
    missing = [name for name in quadham.__all__ if not hasattr(quadham, name)]
    assert missing == []
    assert len(set(quadham.__all__)) == len(quadham.__all__)
