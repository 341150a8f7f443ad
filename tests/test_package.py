import pathbij


def test_all_names_resolve_once():
    assert len(set(pathbij.__all__)) == len(pathbij.__all__)
    assert [name for name in pathbij.__all__ if not hasattr(pathbij, name)] == []
