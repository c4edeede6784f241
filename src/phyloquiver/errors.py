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
    of them. ``__init__`` sets attributes through ``self.__dict__``, where
    state outside ``_fields`` (memos, cached properties) may also live.

    One construction rule: the public constructors and ``build`` check what
    they are given, and a value the library derives from values already
    checked is stored by :meth:`_trusted`, which checks nothing again."""

    _fields: tuple[str, ...] = ()

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
