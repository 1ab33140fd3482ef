"""One counter record for every stats family.

A :class:`Counters` subclass names its counters in ``FIELDS``; each is a
plain attribute, so a bump is one attribute add with no lookup and no
lock (the stream runtime bumps per batch).  A :class:`CounterTable` holds
one record per name — a pipeline stage, a stream node — in first-use
order.  Every table is owned by the object it counts for: two pipelines
or two services in one process never share a record.
"""

from __future__ import annotations

__all__ = ["Counters", "CounterTable"]


class Counters:
    """Plain counters named by ``FIELDS``, each zero at construction."""

    FIELDS: tuple[str, ...] = ()
    __slots__ = ()

    def __init__(self):
        for k in self.FIELDS:
            setattr(self, k, 0)

    def as_dict(self) -> dict:
        """The counters, in ``FIELDS`` order."""
        return {k: getattr(self, k) for k in self.FIELDS}

    def __repr__(self) -> str:
        fields = ", ".join(f"{k}={v!r}" for k, v in self.as_dict().items())
        return f"{type(self).__name__}({fields})"


class CounterTable:
    """One ``record_type`` record per name, in first-use order."""

    record_type: type[Counters] = Counters

    def __init__(self):
        self.records: dict[str, Counters] = {}

    def get(self, name: str) -> Counters:
        """The (auto-created) record for ``name``."""
        st = self.records.get(name)
        if st is None:
            st = self.records[name] = self.record_type()
        return st

    def total(self, field: str):
        """``field`` summed over every record."""
        return sum(getattr(st, field) for st in self.records.values())

    def state_dict(self) -> dict:
        """``{name: record.as_dict()}``, in first-use order."""
        return {name: st.as_dict() for name, st in self.records.items()}

    def load_state(self, state: dict) -> None:
        """Set counters from a :meth:`state_dict`, creating records."""
        for name, counters in state.items():
            st = self.get(name)
            for k, v in counters.items():
                setattr(st, k, v)
