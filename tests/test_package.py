import treelabel


def test_public_names_resolve_once():
    names = treelabel.__all__
    assert len(names) == len(set(names))
    for name in names:
        assert hasattr(treelabel, name), name
