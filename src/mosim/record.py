"""One frozen, slotted record base for every value type in mosim.

``@record`` turns a plain class body of annotated fields, with optional
defaults, into a subclass of ``Record`` whose ``__slots__`` are those fields
in order.  A record compares field-wise and only with a record of the same
class, hashes its field values (so a record holding a dict refuses to hash),
prints as ``Name(field=value, ...)`` and refuses assignment.  A class may
define ``__post_init__`` to validate or complete its fields (``WorldState``
measures its contact map there when it is given none); ``Record.__init__``
calls it, and ``kinematics.tick``, which fills its records through
``_setters``, does not.

The fields are read from the class body's ``__annotations__``, so every
module that defines records keeps ``from __future__ import annotations``
(without it, Python 3.14 stores no ``__annotations__`` in the class body);
``@record`` refuses a class in which it finds no fields.

The methods live on the base and are shared, not generated per class, so
defining a record costs one class creation; the command-line tool, which
imports every module on each run, starts up accordingly.
"""

from __future__ import annotations


class Record:
    __slots__ = ()
    _fields: tuple[str, ...] = ()
    _defaults: dict = {}
    # each field's slot setter, which bypasses the refusing __setattr__
    _setters: tuple = ()

    def __init__(self, *args, **kwargs) -> None:
        if kwargs or len(args) != len(self._fields):
            args = _bind(type(self), args, kwargs)
        for set_field, value in zip(self._setters, args):
            set_field(self, value)
        self.__post_init__()

    def __post_init__(self) -> None:
        """Validate the fields; the base accepts any values."""

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return (type(self), self._values())


def _bind(cls: type, args: tuple, kwargs: dict) -> list:
    """The field values of ``cls(*args, **kwargs)``, defaults filled in."""
    fields = cls._fields
    if len(args) > len(fields):
        raise TypeError(
            f"{cls.__name__}() takes {len(fields)} positional argument(s) "
            f"but {len(args)} were given"
        )
    values = list(args)
    for name in fields[len(args):]:
        if name in kwargs:
            values.append(kwargs.pop(name))
        elif name in cls._defaults:
            values.append(cls._defaults[name])
        else:
            raise TypeError(f"{cls.__name__}() missing required argument {name!r}")
    for name in kwargs:
        problem = "multiple values for" if name in fields else "an unexpected keyword"
        raise TypeError(f"{cls.__name__}() got {problem} argument {name!r}")
    return values


def record(cls: type) -> type:
    """Rebuild a plain class as a Record whose fields are its annotations."""
    namespace = dict(cls.__dict__)
    namespace.pop("__dict__", None)
    namespace.pop("__weakref__", None)
    fields = tuple(namespace.get("__annotations__", {}))
    if not fields:
        raise TypeError(f"@record class {cls.__name__} declares no annotated fields")
    namespace["_defaults"] = {name: namespace.pop(name) for name in fields if name in namespace}
    namespace["_fields"] = fields
    namespace["__slots__"] = fields
    rebuilt = type(cls.__name__, (Record,), namespace)
    rebuilt._setters = tuple(rebuilt.__dict__[name].__set__ for name in fields)
    return rebuilt


def asdict(rec: Record) -> dict:
    """The fields of ``rec`` by name, in order (values are not copied)."""
    return dict(zip(rec._fields, rec._values()))


def replace(rec: Record, **changes) -> Record:
    """A copy of ``rec`` with the named fields changed, built and validated anew."""
    return type(rec)(**{**asdict(rec), **changes})
