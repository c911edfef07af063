import mixedwidths
from mixedwidths import designs, norms, partitions, spread, widths

MODULES = (designs, norms, partitions, spread, widths)


def test_package_exports_every_public_name_of_every_module():
    for module in MODULES:
        for name in module.__all__:
            assert getattr(mixedwidths, name) is getattr(module, name), (module.__name__, name)
    assert set(mixedwidths.__all__) == {name for module in MODULES for name in module.__all__}
