"""The base of the package's immutable classes that check their input or cache
derived values. Records that only hold fields are ``typing.NamedTuple`` classes."""

from __future__ import annotations


class Frozen:
    """An immutable object whose fields are named, in order, by ``_fields``.

    An instance equals only an instance of its own class with equal fields,
    hashes by its fields and is shown as ``Name(field=value, ...)``. Assigning
    or deleting an attribute raises ``AttributeError``, so a subclass's
    ``__init__`` stores its fields with ``vars(self).update(...)``, or with
    ``object.__setattr__`` when it has ``__slots__``. A
    ``functools.cached_property`` writes to the instance ``__dict__`` and works
    as on any class.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")
