import pytest

import relkin
from relkin import (checks, errors, groupoid, isometry, kinematics, linker,
                    metric_core)

MODULES = (errors, metric_core, isometry, linker, kinematics, groupoid, checks)


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_package_exports_every_module_name(module):
    for name in module.__all__:
        assert name in relkin.__all__, name
        assert getattr(relkin, name) is getattr(module, name)

