"""The base of the package's checked records."""


class Checked:
    """Put ahead of a `NamedTuple` fields class by a subclass whose `__new__`
    checks the fields: `_make`, and with it `_replace`, then build through
    `__new__` too, so every construction is checked."""

    __slots__ = ()

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)
