"""Value classes from their annotations, without ``dataclasses``.

``dataclasses`` imports ``inspect`` (and with it ``ast``, ``dis`` and
``tokenize``) and builds every class by ``exec``-ing generated source: a
measurable share of each short CLI command. :func:`record` gives a class the
same behaviour the package relies on with a few plain closures. Every record
is frozen, like a ``dataclass(frozen=True)``: a record holding a dict (the
components of a :class:`~dquant.fields.FieldOperator`) may still change
that dict's contents, but never rebinds a field.
"""

from __future__ import annotations

from operator import attrgetter

_MISSING = object()


def record(cls):
    """Decorate ``cls`` as a frozen value class, like a ``dataclass(frozen=True)``.

    The fields are the class's own annotations, in order; a class attribute
    of the same name is the field's default, and defaults must be hashable,
    so no two instances share a mutable one. ``__init__`` takes the fields by
    position or keyword, then calls ``__post_init__`` when the class has one.
    Equality compares the fields of two instances of the same class. A
    record refuses assignment and deletion (``__post_init__`` may still
    normalize a field through ``object.__setattr__``) and hashes by its
    fields, so one holding a dict is unhashable. These methods replace any
    the class defines. Instances keep a ``__dict__``, so
    ``functools.cached_property`` works on records.
    """
    names = tuple(cls.__annotations__)
    defaults = {}
    for name in names:
        default = cls.__dict__.get(name, _MISSING)
        if default is not _MISSING:
            if type(default).__hash__ is None:
                raise ValueError(f"mutable default {type(default).__name__} for field {name!r}"
                                 " is not allowed")
            defaults[name] = default
        elif defaults:
            raise TypeError(f"non-default field {name!r} follows a default field")
    values = attrgetter(*names)
    post_init = getattr(cls, "__post_init__", None)
    qualname = cls.__qualname__

    def __init__(self, *args, **kwargs):
        if len(args) > len(names):
            raise TypeError(f"{qualname}() takes {len(names)} positional arguments "
                            f"but {len(args)} were given")
        state = self.__dict__
        state.update(zip(names, args))
        for name, value in kwargs.items():
            if name not in names:
                raise TypeError(f"{qualname}() got an unexpected keyword argument {name!r}")
            if name in state:
                raise TypeError(f"{qualname}() got multiple values for argument {name!r}")
            state[name] = value
        if len(state) < len(names):
            missing = [name for name in names if name not in state and name not in defaults]
            if missing:
                raise TypeError(f"{qualname}() missing required arguments: "
                                f"{', '.join(map(repr, missing))}")
            for name in names:
                if name not in state:
                    state[name] = defaults[name]
        if post_init is not None:
            post_init(self)

    def __repr__(self):
        fields_text = ", ".join(f"{name}={getattr(self, name)!r}" for name in names)
        return f"{type(self).__qualname__}({fields_text})"

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return values(self) == values(other)
        return NotImplemented

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of frozen {qualname}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of frozen {qualname}")

    def __hash__(self):
        return hash(values(self))

    for method in (__init__, __repr__, __eq__, __setattr__, __delattr__, __hash__):
        method.__qualname__ = f"{qualname}.{method.__name__}"
        setattr(cls, method.__name__, method)
    return cls
