"""Frozen records: immutable value types with field equality, hash and repr.

``frozen`` makes a class with annotated fields a record, with the methods a
frozen standard-library data class would get, but built as plain closures
over the field names: importing the package compiles no generated code. A
record is built by position or keyword; a class attribute named like a field
is its default. The fields are set before ``__post_init__``, if the class has
one, runs. Assignment and deletion raise AttributeError. Two records are equal
when they are of one class with equal fields, and a record's hash is the hash
of the tuple of its fields. A method the class body defines itself is kept.
"""

from operator import attrgetter


def frozen(cls):
    names = tuple(cls.__annotations__)
    defaults = {name: cls.__dict__[name] for name in names if name in cls.__dict__}
    post_init = hasattr(cls, "__post_init__")
    get = attrgetter(*names)
    fields = get if len(names) > 1 else lambda self: (get(self),)
    setter = object.__setattr__

    def __init__(self, *args, **kwargs):
        if len(args) > len(names):
            raise TypeError(f"{cls.__name__}() takes {len(names)} arguments, got {len(args)}")
        for name, value in zip(names, args):
            if name in kwargs:
                raise TypeError(f"{cls.__name__}() got multiple values for {name!r}")
            setter(self, name, value)
        for name in names[len(args):]:
            if name in kwargs:
                setter(self, name, kwargs.pop(name))
            elif name in defaults:
                setter(self, name, defaults[name])
            else:
                raise TypeError(f"{cls.__name__}() missing argument {name!r}")
        if kwargs:
            raise TypeError(f"{cls.__name__}() got an unexpected argument {min(kwargs)!r}")
        if post_init:
            self.__post_init__()

    def __repr__(self):
        pairs = ", ".join(f"{name}={value!r}" for name, value in zip(names, fields(self)))
        return f"{self.__class__.__qualname__}({pairs})"

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return fields(self) == fields(other)
        return NotImplemented

    def __hash__(self):
        return hash(fields(self))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    for method in (__init__, __repr__, __eq__, __hash__, __setattr__, __delattr__):
        if cls.__dict__.get(method.__name__) is None:  # __eq__ alone sets __hash__ = None
            method.__qualname__ = f"{cls.__qualname__}.{method.__name__}"
            setattr(cls, method.__name__, method)
    return cls
