"""Every protocol class is concrete, exported and agreement-tested.

Read off the real objects: the classes defined under
``repro.core.protocols``, its ``__all__``, and the classes
``tests/verify/test_oracle.py::ALL_PROTOCOLS`` builds.
``TestAgreement`` runs ``rule_for`` and the spec leg on every one of
those, so it is the "has a spec rule" check, and a new protocol cannot
be left out of it.
"""

from __future__ import annotations

import importlib
import inspect
import pkgutil
from types import ModuleType

from repro.core import protocols
from repro.core.protocols import ConsistencyProtocol
from tests.verify.test_oracle import ALL_PROTOCOLS


def submodules(package: ModuleType) -> list[ModuleType]:
    """Every module of ``package``, imported (``__main__`` is not)."""
    return [
        importlib.import_module(info.name)
        for info in pkgutil.iter_modules(
            package.__path__, package.__name__ + "."
        )
        if not info.name.endswith(".__main__")
    ]


def protocol_classes() -> set[type]:
    """Every :class:`ConsistencyProtocol` subclass the package defines."""
    return {
        cls
        for module in submodules(protocols)
        for _, cls in inspect.getmembers(module, inspect.isclass)
        if issubclass(cls, ConsistencyProtocol)
        and cls is not ConsistencyProtocol
        and cls.__module__ == module.__name__
    }


def check_protocol_classes() -> None:
    classes = protocol_classes()
    abstract = {
        cls.__name__: sorted(cls.__abstractmethods__)
        for cls in classes
        if inspect.isabstract(cls)
    }
    assert not abstract, f"protocol classes left abstract: {abstract}"
    unexported = sorted(
        cls.__name__ for cls in classes
        if cls.__name__ not in protocols.__all__
    )
    assert not unexported, (
        f"not in repro.core.protocols.__all__: {unexported}"
    )
    tested = {type(factory()) for factory in ALL_PROTOCOLS}
    assert tested == classes, (
        "test_oracle.ALL_PROTOCOLS misses "
        f"{sorted(c.__name__ for c in classes - tested)}"
    )


def test_every_protocol_is_concrete_exported_and_agreement_tested():
    check_protocol_classes()
