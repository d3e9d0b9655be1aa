"""Every abstract interface declared in ``repro`` has two implementations.

An ``abc.ABC`` with a single concrete subclass is an indirection that nothing
chooses between: fold it into that class.  The check imports every module of
the package (its ``__main__`` entry points aside) and counts, for each class
that names ``abc.ABC`` as a base, the concrete classes of the package below it.
"""

from __future__ import annotations

import abc
import importlib
import inspect
import pkgutil

import pytest

import repro


def _package_classes() -> list[type]:
    classes = []
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if info.name.rpartition(".")[2] == "__main__":
            continue
        module = importlib.import_module(info.name)
        classes.extend(value for value in vars(module).values()
                       if inspect.isclass(value) and value.__module__ == module.__name__)
    return classes


CLASSES = _package_classes()
INTERFACES = [cls for cls in CLASSES if abc.ABC in cls.__bases__]


@pytest.mark.parametrize("interface", INTERFACES, ids=lambda cls: cls.__qualname__)
def test_an_interface_has_at_least_two_implementations(interface):
    found = [cls.__qualname__ for cls in CLASSES
             if issubclass(cls, interface) and not inspect.isabstract(cls)]
    assert len(found) >= 2, f"{interface.__qualname__} is only implemented by {found}"
