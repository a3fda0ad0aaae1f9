"""Base class of the package's immutable value records.

Written out by hand, not generated by a decorator: the standard library's
record generator imports inspect, ast and dis and builds each class's methods
with exec, which together cost more than the CLI's own work on small inputs.
"""


class Record:
    """Equality, hash and repr over the fields named in _fields, in order.

    A subclass lists its fields in _fields. Record.__init__ takes them by
    position, in field order, or by name, and raises TypeError unless each
    field is given exactly once. A subclass that checks its fields writes an
    __init__ around Record.__init__.
    Attributes cannot be assigned or deleted afterwards; cached_property still
    works, since it writes the instance __dict__ directly.
    """

    _fields: tuple[str, ...] = ()

    def __init__(self, *values, **named):
        fields = self._fields
        if len(values) + len(named) != len(fields) or (
                named and not named.keys() <= set(fields[len(values):])):
            raise TypeError(f"{self.__class__.__qualname__} takes the fields "
                            f"({', '.join(fields)}), each once, by position or by name")
        self.__dict__.update(zip(fields, values), **named)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
