"""Plain record classes, without `dataclasses` and its start-up cost."""


class Record:
    """A class whose fields are its `__init__` parameters, in order, that
    equals a record of its class with equal fields and prints as
    `Name(field=value, ...)`.  One declared `frozen=True` hashes by its
    fields and refuses assignment (its `__init__` stores by `_set`)."""

    def __init_subclass__(cls, frozen=False):
        code = cls.__init__.__code__
        cls._fields = code.co_varnames[1:code.co_argcount]
        if frozen:
            cls.__setattr__ = cls.__delattr__ = _refuse
            cls.__hash__ = lambda self: hash(self._values())

    def _values(self):
        return tuple(getattr(self, name) for name in self._fields)

    def _set(self, *values):
        self.__dict__.update(zip(self._fields, values))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __repr__(self):
        return "%s(%s)" % (type(self).__qualname__, ", ".join(
            "%s=%r" % (name, getattr(self, name)) for name in self._fields))


def _refuse(record, name, value=None):
    raise AttributeError("%s is frozen: %s cannot change"
                         % (type(record).__name__, name))
