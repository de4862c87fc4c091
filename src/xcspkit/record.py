"""``record``: the one class decorator for the kit's classes of named fields.

A record's fields are the names its class body annotates, in order; a class
attribute of the same name is that field's default. ``@record`` gives the
class:

- an ``__init__`` that takes the fields positionally or by keyword and
  calls ``__post_init__`` last, when the class has one. It and
  ``_values()``, the tuple of field values, are generated once per class
  by a single ``exec``, as ``collections.namedtuple`` does; the other
  methods are shared by every record;
- ``__eq__``, exact by class over the tuple of fields, so a record never
  equals a tuple, nor a record of another class with the same fields;
- a ``Name(field=value, ...)`` ``__repr__``;
- ``_fields``, the field names in order.

A record is frozen unless declared ``@record(frozen=False)``. A frozen
record hashes as the tuple of its fields, unless its class body defines
``__hash__``, and raises ``AttributeError`` on any assignment or deletion;
its ``__post_init__`` sets a field with ``object.__setattr__``. A mutable
record is assignable and unhashable.

The standard library's class generator that it replaces cost every
``solve`` about 35 ms of start-up: its import pulls in ``inspect``, ``ast``
and ``dis``, and it compiles several methods per class.
"""

from __future__ import annotations

_setattr = object.__setattr__


def _eq(self, other):
    if other.__class__ is self.__class__:
        return self._values() == other._values()
    return NotImplemented


def _hash(self) -> int:
    return hash(self._values())


def _repr(self) -> str:
    fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
    return f"{type(self).__qualname__}({fields})"


def _refuse(self, name, value=None):
    raise AttributeError(f"cannot set or delete {name!r} of a frozen {type(self).__qualname__}")


def record(cls=None, /, *, frozen: bool = True):
    """Make ``cls`` a record; used as ``@record`` or ``@record(frozen=False)``."""
    if cls is None:
        return lambda cls: record(cls, frozen=frozen)
    names = tuple(cls.__dict__.get("__annotations__", ()))
    defaults = tuple(cls.__dict__[name] for name in names if name in cls.__dict__)
    if any(name in cls.__dict__ for name in names[: len(names) - len(defaults)]):
        raise TypeError(f"{cls.__qualname__}: a field without a default follows one with a default")
    lines = [f"def __init__(self, {', '.join(names)}):"]
    lines += [f"    _setattr(self, {name!r}, {name})" if frozen else f"    self.{name} = {name}" for name in names]
    if hasattr(cls, "__post_init__"):
        lines.append("    self.__post_init__()")
    lines += ["def _values(self):", f"    return ({''.join(f'self.{name}, ' for name in names)})"]
    namespace = {"_setattr": _setattr}
    exec("\n".join(lines), namespace)
    init = namespace["__init__"]
    init.__defaults__ = defaults or None
    init.__qualname__ = f"{cls.__qualname__}.__init__"
    cls.__init__ = init
    cls._fields = names
    cls._values = namespace["_values"]
    cls.__eq__ = _eq
    cls.__repr__ = _repr
    if frozen:
        if cls.__dict__.get("__hash__") is None:
            cls.__hash__ = _hash
        cls.__setattr__ = cls.__delattr__ = _refuse
    else:
        cls.__hash__ = None
    return cls
