"""The base of the package's immutable value records.

A record class lists its fields, in constructor order, as `__slots__`.
`Record` gives it a constructor taking those fields positionally or by
keyword, equality between records of the same class with equal fields, a
hash of the field tuple, a `Name(field=value, ...)` repr, and refuses every
assignment and deletion with AttributeError.  Classes built by the hundred
thousand write their own `__init__`, `__eq__` and `__hash__`, since the
generic ones here loop over the field names on each call.
"""


_set = object.__setattr__


class Record:
    __slots__ = ()

    def __init__(self, *args, **kwargs):
        names = self.__slots__
        if kwargs or len(args) != len(names):
            args = self._arguments(args, kwargs)
        for field, value in zip(names, args):
            _set(self, field, value)

    def _arguments(self, args, kwargs):
        """The field values, in slot order, of a call that names some of
        them or passes the wrong count."""
        names = self.__slots__
        values = dict(zip(names, args))
        for field, value in kwargs.items():
            if field not in names or field in values:
                raise TypeError(f"{type(self).__name__}: unexpected or repeated field {field!r}")
            values[field] = value
        if len(args) > len(names) or len(values) < len(names):
            raise TypeError(f"{type(self).__name__} takes the fields {', '.join(names)}")
        return [values[field] for field in names]

    def _values(self):
        return tuple(getattr(self, field) for field in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{field}={getattr(self, field)!r}" for field in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        # copy and pickle rebuild through the constructor: their default
        # slot-state restore assigns fields, which __setattr__ refuses
        return (self.__class__, self._values())
