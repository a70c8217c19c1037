"""Immutable records, the base of the package's value types: a record's
fields are the names its class annotates, in order, and copies, pickles
and ``replace`` go through its constructor, so its checks run again."""

from operator import attrgetter


class Record:
    __slots__ = ()

    def __init_subclass__(cls):
        cls._fields = tuple(cls.__dict__["__annotations__"])
        cls._values = attrgetter(*cls._fields)  # the tuple of field values
        # equality compares the instance dict, which holds the fields alone, or the slots
        cls._compared = cls._values if "__slots__" in cls.__dict__ else vars

    def __init__(self, *args, **kwargs):
        """Store each field, given by position or by name, once."""
        if kwargs or len(args) != len(self._fields):
            values = dict(zip(self._fields, args), **kwargs)
            if len(args) + len(kwargs) != len(self._fields) or values.keys() != set(self._fields):
                raise TypeError(f"{type(self).__name__} takes the fields {self._fields}")
            args = tuple(map(values.get, self._fields))
        for name, value in zip(self._fields, args):
            object.__setattr__(self, name, value)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._compared(self) == other._compared(other)

    def __hash__(self):
        return hash(self._values(self))

    def __repr__(self):
        pairs = zip(self._fields, self._values(self))
        return f"{type(self).__qualname__}({', '.join(f'{k}={v!r}' for k, v in pairs)})"

    def __setattr__(self, name, value=None):
        raise AttributeError(f"cannot assign to or delete field {name!r}")

    __delattr__ = __setattr__

    def __reduce__(self):
        return type(self), self._values(self)


def replace(record: Record, **changes) -> Record:
    """The record with the given fields changed, made by its constructor."""
    values = tuple(map(changes.pop, record._fields, record._values(record)))
    return type(record)(*values, **changes)
