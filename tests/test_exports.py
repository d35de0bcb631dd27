import ktower


def test_every_exported_name_resolves():
    missing = [name for name in ktower.__all__ if not hasattr(ktower, name)]
    assert missing == []


def test_exports_have_no_duplicates():
    assert len(ktower.__all__) == len(set(ktower.__all__))
