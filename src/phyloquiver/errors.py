"""Exception types shared across the package."""

from __future__ import annotations


class InputError(ValueError):
    """Malformed or inconsistent input: unknown ids, broken invariants,
    violated preconditions, unparseable files."""


class UndecidedError(RuntimeError):
    """A query whose exact answer is not computable for the given input
    (e.g. phylogenetic status of a non-normal vertex in a non-monotonous
    quiver)."""


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
