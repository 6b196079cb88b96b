"""Frozen value records without ``dataclasses``.

Importing ``dataclasses`` pulls in ``inspect``, ``ast``, ``dis`` and
``typing``, and ``@dataclass`` compiles fresh methods for every record it
decorates; both are paid at the start of every CLI call.  ``Record`` gives
the package's records the same behaviour from one set of shared methods.
"""

from operator import attrgetter


class Record:
    """An immutable record whose fields are its class annotations, in order.

    Fields are given by position or by keyword; a field with a value in the
    class body may be left out and then reads that value.  Once the fields
    are set, ``__post_init__`` validates them, and may normalise one with
    ``object.__setattr__``.  Equality and hash go over the fields, only
    between instances of the same class; ``repr`` reads like a dataclass's,
    which the ``uniformization`` golden table prints for ``H2Class``;
    assigning or deleting an attribute raises ``AttributeError``.
    """

    _fields = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields = cls._fields + tuple(cls.__dict__.get("__annotations__", ()))
        cls._values = attrgetter(*cls._fields)

    def __init__(self, *args, **kwargs):
        cls = type(self)
        values = dict(zip(cls._fields, args))
        if len(args) > len(cls._fields):
            raise TypeError(f"{cls.__name__} takes {len(cls._fields)} fields, got {len(args)}")
        for name, value in kwargs.items():
            if name not in cls._fields or name in values:
                raise TypeError(f"{cls.__name__} got an unexpected or repeated field {name!r}")
            values[name] = value
        if len(values) < len(cls._fields):
            missing = [name for name in cls._fields if name not in values and not hasattr(cls, name)]
            if missing:
                raise TypeError(f"{cls.__name__} is missing the fields {missing}")
        self.__dict__.update(values)
        self.__post_init__()

    def __post_init__(self):
        pass

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values(self) == self._values(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._values(self))

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"
