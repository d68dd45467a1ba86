"""The layer ledger's hooks still find what they wrap.

``ledger/layers.py`` imports every module in ``DRIVER_MODULES`` and then
patches each ``TARGETS`` entry through its owner's ``__dict__``, so a
refactor that moves or renames a driver or an entry point breaks every
``python3 ledger/ledger.py`` run at install time.  These tests load that
table by path (the ledger is not a package) and check it against the
source tree without installing anything.
"""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

import pytest

LAYERS_PY = Path(__file__).resolve().parents[1] / "ledger" / "layers.py"


def _load_layers():
    spec = importlib.util.spec_from_file_location("_ledger_layers", LAYERS_PY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


layers = _load_layers()


@pytest.mark.parametrize("name", layers.DRIVER_MODULES)
def test_driver_module_imports(name):
    importlib.import_module(name)


@pytest.mark.parametrize("layer, module_name, attr", layers.TARGETS,
                         ids=[f"{m}.{a}" for _, m, a in layers.TARGETS])
def test_target_is_defined_on_its_owner(layer, module_name, attr):
    module = importlib.import_module(module_name)
    owner_name, _, fn_name = attr.rpartition(".")
    owner = getattr(module, owner_name) if owner_name else module
    # ``Ledger.install`` reads the owner's own namespace, not inherited
    # or re-exported names.
    assert fn_name in vars(owner), f"{module_name} defines no {attr}"
    assert callable(vars(owner)[fn_name])
