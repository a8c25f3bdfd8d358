"""Frozen value records: the base class of the package's immutable values.

A record behaves as a ``@dataclass(frozen=True)`` does, without importing
``dataclasses``, which loads ``inspect``, ``ast`` and ``dis`` and builds
each class's methods with ``exec`` when the package is imported.  It keeps
only what the package uses: ``_asdict`` for the CLI's JSON, and no
``_replace``; a changed record is built by calling its class.

A subclass names its fields, in order, in ``__slots__``, at least two of
them, so that ``attrgetter`` of them returns their tuple.  ``Record.__init__``
fills them, by position or by name.  Only a record that checks or
canonicalizes its inputs defines ``__init__``, and it passes the checked
values on to ``Record.__init__``.
"""

from operator import attrgetter


class Record:
    """Construction, equality, hash, repr, immutability and copying of the fields.

    The constructor takes each field exactly once, by position or by name,
    and raises TypeError naming the class and its fields otherwise.  Two
    records are equal iff they are of the same class and have equal
    field tuples.  The hash is the hash of the field tuple, so hashing a
    record with an unhashable field (a dict) raises TypeError.  Assigning
    or deleting an attribute raises AttributeError.  ``pickle`` and
    ``copy`` rebuild a record by calling its class on its fields.
    """

    __slots__ = ()

    def __init_subclass__(cls):
        # One C-level call builds the field tuple that __eq__ and __hash__ compare.
        cls._astuple = property(attrgetter(*cls.__slots__))

    def __init__(self, *args, **kwargs):
        fields = self.__slots__
        values = args
        if kwargs:
            values += tuple(kwargs[n] for n in fields[len(args):] if n in kwargs)
        # Valid iff every keyword names a field after the positionals and every field is given.
        if len(values) != len(args) + len(kwargs) or len(values) != len(fields):
            faults = [f"{len(args)} positional values"] if len(args) > len(fields) else []
            faults += [f"field {n!r} given twice" for n in kwargs if n in fields[:len(args)]]
            faults += [f"unknown field {n!r}" for n in kwargs if n not in fields]
            faults += [f"missing field {n!r}" for n in fields[len(args):] if n not in kwargs]
            raise TypeError(f"{type(self).__qualname__}({', '.join(fields)}): {'; '.join(faults)}")
        for name, value in zip(fields, values):
            object.__setattr__(self, name, value)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._astuple == other._astuple
        return NotImplemented

    def __hash__(self):
        return hash(self._astuple)

    def __repr__(self) -> str:
        fields = zip(self.__slots__, self._astuple)
        return f"{type(self).__qualname__}({', '.join(f'{n}={v!r}' for n, v in fields)})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), self._astuple

    def _asdict(self) -> dict:
        """The fields by name, in order; values are not copied."""
        return dict(zip(self.__slots__, self._astuple))
