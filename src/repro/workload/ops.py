"""Abstract machine operations and operation-count vectors."""

from __future__ import annotations

import enum
from dataclasses import dataclass, fields

#: Machine word size in bytes (all four platforms in the study are
#: 64-bit-word machines for our purposes; the MTA natively so).
WORD_BYTES = 8


class OpClass(enum.Enum):
    """The operation vocabulary shared by every machine model."""

    IALU = "ialu"      #: integer ALU op (add, compare, index arithmetic)
    FALU = "falu"      #: floating-point op (add/mul/div lumped together)
    LOAD = "load"      #: memory read of one word
    STORE = "store"    #: memory write of one word
    BRANCH = "branch"  #: control transfer
    SYNC = "sync"      #: synchronized memory op (full/empty, atomic, lock)


class AccessMode(enum.Enum):
    """How a phase touches a shared array (see :class:`SharedAccess`)."""

    READ = "read"
    WRITE = "write"

    @property
    def is_write(self) -> bool:
        return self is AccessMode.WRITE


@dataclass(frozen=True, slots=True)
class SharedAccess:
    """One phase's footprint on a *shared* array, as a location range.

    ``array`` names the shared object (thread-private storage such as
    Program 4's per-worker ``temp`` is deliberately not annotated --
    these records exist for the race detector in
    :mod:`repro.analysis`, which reasons about cross-thread conflicts).

    ``lo``/``hi`` bound the element range touched, inclusive.  ``None``
    on both means the subscripts are opaque at the workload level (e.g.
    ``intervals[chunk][num_intervals[chunk]]``): the access potentially
    covers the whole array, and only a compiler dependence fact
    (:mod:`repro.analysis.facts`) can prove instances independent.
    """

    array: str
    mode: AccessMode
    lo: float | None = None
    hi: float | None = None

    def __post_init__(self) -> None:
        if (self.lo is None) != (self.hi is None):
            raise ValueError("lo and hi must both be set or both be None")
        if self.lo is not None and self.lo > self.hi:
            raise ValueError(f"empty range [{self.lo}, {self.hi}]")

    @property
    def bounded(self) -> bool:
        """Whether the element range is known."""
        return self.lo is not None

    def overlaps(self, other: "SharedAccess") -> bool:
        """Whether the two accesses can touch a common element."""
        if self.array != other.array:
            return False
        if self.lo is None or other.lo is None:
            return True  # opaque extent: assume the whole array
        return self.lo <= other.hi and other.lo <= self.hi

    def span(self) -> str:
        """Human-readable location, e.g. ``intervals[0:249]``."""
        if self.lo is None:
            return f"{self.array}[*]"
        return f"{self.array}[{self.lo:g}:{self.hi:g}]"


def read_of(array: str, lo: float | None = None,
            hi: float | None = None) -> SharedAccess:
    return SharedAccess(array, AccessMode.READ, lo, hi)


def write_of(array: str, lo: float | None = None,
             hi: float | None = None) -> SharedAccess:
    return SharedAccess(array, AccessMode.WRITE, lo, hi)


@dataclass(frozen=True, slots=True)
class OpCounts:
    """A vector of operation counts.

    Counts are floats so they can be scaled (e.g. extrapolating an
    instrumented reduced-size run to paper-size inputs).
    """

    ialu: float = 0.0
    falu: float = 0.0
    load: float = 0.0
    store: float = 0.0
    branch: float = 0.0
    sync: float = 0.0

    def __post_init__(self) -> None:
        # hot constructor: field list spelled out (dataclasses.fields()
        # re-resolves the registry on every call)
        if (self.ialu < 0 or self.falu < 0 or self.load < 0
                or self.store < 0 or self.branch < 0 or self.sync < 0):
            for name in _FIELD_NAMES:
                v = getattr(self, name)
                if v < 0:
                    raise ValueError(f"negative op count {name}={v}")

    # ------------------------------------------------------------------
    @property
    def total(self) -> float:
        """Total instructions issued."""
        return (self.ialu + self.falu + self.load + self.store
                + self.branch + self.sync)

    @property
    def mem_ops(self) -> float:
        """Operations that touch memory."""
        return self.load + self.store + self.sync

    @property
    def mem_bytes(self) -> float:
        """Bytes referenced (word-granularity accesses)."""
        return self.mem_ops * WORD_BYTES

    @property
    def mem_fraction(self) -> float:
        """Fraction of instructions that reference memory."""
        t = self.total
        return self.mem_ops / t if t > 0 else 0.0

    # ------------------------------------------------------------------
    def __add__(self, other: "OpCounts") -> "OpCounts":
        return OpCounts(self.ialu + other.ialu, self.falu + other.falu,
                        self.load + other.load, self.store + other.store,
                        self.branch + other.branch, self.sync + other.sync)

    def __mul__(self, k: float) -> "OpCounts":
        if k < 0:
            raise ValueError("cannot scale op counts by a negative factor")
        return OpCounts(self.ialu * k, self.falu * k, self.load * k,
                        self.store * k, self.branch * k, self.sync * k)

    __rmul__ = __mul__

    def replace(self, **kwargs: float) -> "OpCounts":
        vals = {name: getattr(self, name) for name in _FIELD_NAMES}
        vals.update(kwargs)
        return OpCounts(**vals)

    def as_dict(self) -> dict[str, float]:
        return {name: getattr(self, name) for name in _FIELD_NAMES}

    @staticmethod
    def from_dict(d: dict[str, float]) -> "OpCounts":
        return OpCounts(**d)

    def weighted_cycles(self, weights: dict[str, float]) -> float:
        """Dot product with a per-op-class cycle-cost table."""
        return sum(getattr(self, name) * w for name, w in weights.items())


_FIELD_NAMES = tuple(f.name for f in fields(OpCounts))
