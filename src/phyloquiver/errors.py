"""Exception types shared across the package, and :class:`Frozen`, the
base of its immutable value types."""

from __future__ import annotations


class InputError(ValueError):
    """Malformed or inconsistent input: unknown ids, broken invariants,
    violated preconditions, unparseable files."""


class UndecidedError(RuntimeError):
    """Exported so that callers which catch it keep working; never raised,
    as every phylogenetic status is now decided exactly."""


class SizeGuardError(RuntimeError):
    """A computation refused because it exceeded a configured size or
    enumeration budget."""


def limit_reason(exc: ValueError) -> str | None:
    """Python's words for an int/str conversion past
    sys.get_int_max_str_digits(), up to the advice after ';' (3.10 says
    "limit (4300)", later versions "limit (4300 digits)"), or None when
    ``exc`` is some other ValueError."""
    words = str(exc).split(";")[0]
    return words if words.startswith("Exceeds the limit") else None


class Frozen:
    """Immutable value compared, hashed and shown by the attributes that
    ``_fields`` names, in order, as a frozen dataclass would be: equal only
    to an instance of its own class with equal fields, hashed as the tuple
    of them, and built from them by position or by name. They live in
    ``self.__dict__``, as may state outside ``_fields`` (memos, caches).

    One construction rule, with no exception: public constructors take
    outside input, checked by the types that override ``__init__``, and
    :meth:`_trusted` stores every value the library derives."""

    _fields: tuple[str, ...] = ()

    def __init__(self, *values, **named) -> None:
        fields, name = self._fields, type(self).__qualname__
        if len(values) > len(fields):
            raise TypeError(f"{name}() takes fields {fields}, not {len(values)} values")
        for field, value in zip(fields, values):
            if field in named:
                raise TypeError(f"{name}() got field {field!r} twice")
            named[field] = value
        for field in (*named, *fields):
            if field not in fields:
                raise TypeError(f"{name}() got an unknown field {field!r}")
            if field not in named:
                raise TypeError(f"{name}() missing field {field!r}")
        self.__dict__.update({field: named[field] for field in fields})

    @classmethod
    def _trusted(cls, **fields):
        self = cls.__new__(cls)
        self.__dict__.update(fields)
        return self

    def _key(self) -> tuple:
        return tuple(map(self.__dict__.__getitem__, self._fields))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self) -> str:
        shown = ", ".join(f"{f}={v!r}" for f, v in zip(self._fields, self._key()))
        return f"{type(self).__qualname__}({shown})"
