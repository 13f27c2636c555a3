"""The package exports only ``__version__``; every other name is imported
from its module, so ``roleforge.rsr`` and ``roleforge.quantale`` are the
modules and not functions of the same name."""

import subprocess
import sys
import types

from conftest import REPO


def test_submodule_imports_give_modules():
    import roleforge.quantale as quantale_module
    import roleforge.rsr as rsr_module

    for module in (rsr_module, quantale_module):
        assert isinstance(module, types.ModuleType)
        assert callable(module.role_lattice)


def test_importing_the_package_loads_no_submodule():
    probe = ("import sys, roleforge; "
             "print(sorted(m for m in sys.modules if m.startswith('roleforge.')), "
             "roleforge.__version__)")
    out = subprocess.run([sys.executable, "-c", probe], cwd=REPO, capture_output=True,
                         text=True, check=True, env={"PYTHONPATH": str(REPO / "src")}).stdout
    assert out == "[] 0.1.0\n"
