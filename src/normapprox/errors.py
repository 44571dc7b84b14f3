"""Shared exception type, argument conversion and the immutable record base."""


class DomainError(ValueError):
    """An argument fell outside the stated domain of an operation."""


def to_float(x) -> float:
    """float(x), with a number beyond the double range as +-inf, outside every domain."""
    try:
        return float(x)
    except OverflowError:
        return float("inf") if x > 0 else float("-inf")


class Record:
    """An immutable value record, lighter to import than a frozen dataclass.

    A subclass lists its fields in order as ``__slots__`` and the defaults of
    trailing ones in ``_defaults``.  ``_check`` receives the field values,
    validates them and returns the values to store.  Construction, copying
    and unpickling all pass through ``__init__``, hence through ``_check``.
    Records compare and hash by type and value, so none equals a tuple.
    """

    __slots__ = ()
    _defaults = {}

    def __init__(self, *args, **kwargs):
        fields = self.__slots__
        values = {**self._defaults, **dict(zip(fields, args)), **kwargs}
        if (len(args) > len(fields) or not kwargs.keys() <= set(fields[len(args):])
                or len(values) != len(fields)):
            raise TypeError(f"{type(self).__name__} takes the fields {', '.join(fields)}")
        for name, value in zip(fields, self._check(*map(values.get, fields))):
            object.__setattr__(self, name, value)

    def _check(self, *values):
        return values

    def _values(self):
        return tuple(map(self.__getattribute__, self.__slots__))

    def __setattr__(self, name, value=None):  # value=None: serves as __delattr__
        raise AttributeError(f"{type(self).__name__} is immutable: cannot set "
                             f"or delete {name!r}")

    __delattr__ = __setattr__

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{n}={v!r}" for n, v in zip(self.__slots__, self._values()))
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), self._values()
