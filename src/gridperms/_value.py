"""The base of the package's immutable value types.

A subclass names its fields in ``__slots__``, after those of its bases, and
its own ``__init__`` takes them by name, in that order, so Python's call
binding checks them; after normalising or validating it ends in
``super().__init__(...)``, which stores them positionally.  The one
exception is ``perms.Permutation``: it stores its one validated field
itself, with ``object.__setattr__``, as ``Value.__init__`` would, which
saves one call per image in the sweeps.  A value compares, hashes, prints,
pickles and copies by its fields, in order, and refuses assignment and
deletion.
"""
from operator import attrgetter


class Value:
    __slots__ = ()

    def __init_subclass__(cls) -> None:
        super().__init_subclass__()
        cls.__match_args__ = tuple(
            name for base in reversed(cls.__mro__) for name in vars(base).get("__slots__", ())
        )
        cls._key = attrgetter(*cls.__match_args__)

    def __init__(self, *values: object) -> None:
        for name, value in zip(self.__match_args__, values, strict=True):
            object.__setattr__(self, name, value)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        mine, theirs = self._key(self), self._key(other)
        # a one-field key is the field itself: the same object is equal at once
        return mine is theirs or mine == theirs

    def __hash__(self) -> int:
        return hash(self._key(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__match_args__)
        return f"{self.__class__.__qualname__}({fields})"

    def __reduce__(self):
        return self.__class__, tuple(getattr(self, name) for name in self.__match_args__)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")
