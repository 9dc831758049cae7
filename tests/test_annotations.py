"""Every annotation in the package resolves to a name its module can see."""

import importlib
import inspect
import pkgutil
import typing

import dircq


def annotated_callables():
    """(qualified name, object) of every function, method and class of dircq."""
    for info in pkgutil.iter_modules(dircq.__path__):
        mod = importlib.import_module(f"dircq.{info.name}")
        for name, obj in vars(mod).items():
            if getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isclass(obj):
                yield f"{mod.__name__}.{name}", obj
                for attr, member in vars(obj).items():
                    member = getattr(member, "__func__", member)
                    if inspect.isfunction(member):
                        yield f"{mod.__name__}.{name}.{attr}", member
            elif callable(obj):
                yield f"{mod.__name__}.{name}", obj


def test_every_type_hint_resolves():
    unresolved = []
    for qualname, obj in annotated_callables():
        try:
            typing.get_type_hints(obj)
        except NameError as exc:
            unresolved.append(f"{qualname}: {exc}")
    assert unresolved == []
