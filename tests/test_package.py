import deformopt


def test_every_exported_name_resolves():
    missing = [name for name in deformopt.__all__
               if not hasattr(deformopt, name)]
    assert not missing
    assert len(set(deformopt.__all__)) == len(deformopt.__all__)
