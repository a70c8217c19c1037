"""Immutable records, the base of the package's value types.  A record's
fields are the names its class annotates, in order, and a record is the
tuple (its class, *its field values): one allocation, whose fields are read
by position through the accessors ``collections.namedtuple`` makes.  The
class in front keeps records of two classes, and a record and the plain
tuple of its values, unequal, and keeps a record out of JSON.  A class that
defines its fields itself, as properties, keeps their storage in an instance
dict, and its tuple holds only its class.  Copies, pickles and ``replace``
go through the constructor, so its checks run again; a constructor that
checks its fields makes its record as ``tuple.__new__(cls, (cls, *values))``."""

from collections import namedtuple
from functools import cache
from operator import attrgetter, itemgetter


@cache
def _item_readers() -> tuple:
    """Readers of items 0..15 of any tuple, at C speed: the accessors of one
    namedtuple, made once.  The widest record, ``ConjectureReport``, reads
    items 1..11."""
    items = namedtuple("items", [f"item{k}" for k in range(16)])
    return tuple(getattr(items, f"item{k}") for k in range(16))


class _RecordType(type):
    """Gives a record class ``_fields``, the names it annotates, and
    ``_values``, which reads a record's field values as the tuple that ==
    compares.  Unless the class defines its fields as properties, they are
    the record's items 1.., and the record has no instance dict."""

    def __new__(mcls, name, bases, namespace):
        fields = tuple(namespace.get("__annotations__", ()))
        if any(isinstance(namespace.get(f), property) for f in fields):
            values = attrgetter(*fields)
        else:
            readers = _item_readers()
            namespace.update({f: readers[k] for k, f in enumerate(fields, 1)}, __slots__=())
            values = itemgetter(slice(1, None))
        namespace.update(_fields=fields, _values=values)
        return super().__new__(mcls, name, bases, namespace)


class Record(tuple, metaclass=_RecordType):
    def __new__(cls, *args, **kwargs):
        """The record of these fields, each given by position or by name, once."""
        if kwargs or len(args) != len(cls._fields):
            values = dict(zip(cls._fields, args), **kwargs)
            if len(args) + len(kwargs) != len(cls._fields) or values.keys() != set(cls._fields):
                raise TypeError(f"{cls.__name__} takes the fields {cls._fields}")
            args = map(values.get, cls._fields)
        return tuple.__new__(cls, (cls, *args))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values(self) == other._values(other)

    def __hash__(self):
        return hash(self._values(self))

    # object's, not tuple's: != is the negation of __eq__, and records have no order
    __ne__, __lt__, __le__, __gt__, __ge__ = (object.__ne__, object.__lt__, object.__le__,
                                              object.__gt__, object.__ge__)

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
