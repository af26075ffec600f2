"""The shared-memory namespace: ownership and sharing units.

Locations are strings (e.g. ``"x"``, ``"x[3]"``, ``"dict[2][5]"``).  Every
location has a fixed *owner* processor, as in the paper's owner protocol.
Locations may additionally be grouped into *units* (pages); the unit is the
granularity of caching and invalidation, reproducing the paper's "scaling
the unit of sharing to a page" enhancement.  With the default identity
paging, unit == location and the protocol is exactly Figure 4.

Ownership must be a pure function of the location: every node computes the
same ``owner(x)`` with no coordination, which is what lets the protocol
route requests with no directory service.
"""

from __future__ import annotations

import functools
import re
import zlib
from typing import Callable, Dict, Iterable, Optional

from repro.errors import OwnershipError

__all__ = ["Namespace", "location_array"]

_ARRAY_RE = re.compile(r"^(?P<base>[^\[\]]+)\[(?P<index>\d+)\](?P<rest>.*)$")


@functools.lru_cache(maxsize=None)  # a program names a bounded set
def location_array(base: str, *indices: int) -> str:
    """Build an array-style location name, e.g. ``location_array('x', 3)``.

    >>> location_array("dict", 2, 5)
    'dict[2][5]'
    """
    return base + "".join(f"[{i}]" for i in indices)


def _stable_hash(text: str) -> int:
    """A process-stable hash (Python's builtin ``hash`` is randomized)."""
    return zlib.crc32(text.encode("utf-8"))


class Namespace:
    """Maps locations to owners and sharing units.

    Parameters
    ----------
    n_nodes:
        Number of processors; owners are node ids in ``range(n_nodes)``.
    owner_fn:
        Maps a *unit* name to its owner id.  Defaults to a stable hash.
    unit_fn:
        Maps a location to its unit (page).  Defaults to identity
        (word granularity, the paper's basic algorithm).
    read_only:
        Locations (by prefix match on the unit) that every node may cache
        permanently and that are exempt from invalidation — the paper's
        footnote-2 enhancement for the solver's constant inputs ``A``/``b``.
    """

    def __init__(
        self,
        n_nodes: int,
        owner_fn: Optional[Callable[[str], int]] = None,
        unit_fn: Optional[Callable[[str], str]] = None,
        read_only: Iterable[str] = (),
    ):
        if n_nodes <= 0:
            raise OwnershipError(f"need at least one node, got {n_nodes}")
        self.n_nodes = n_nodes
        self._owner_fn = owner_fn or (lambda unit: _stable_hash(unit) % n_nodes)
        self._unit_fn = unit_fn or (lambda loc: loc)
        self._read_only_prefixes = tuple(read_only)
        self._owner_cache: Dict[str, int] = {}
        self._unit_cache: Dict[str, str] = {}

    # ------------------------------------------------------------------
    # Core queries
    # ------------------------------------------------------------------
    def unit(self, location: str) -> str:
        """The sharing unit (page) containing ``location``."""
        unit = self._unit_cache.get(location)
        if unit is None:
            unit = self._unit_fn(location)
            self._unit_cache[location] = unit
        return unit

    def owner(self, location: str) -> int:
        """The owner node of the unit containing ``location``."""
        unit = self.unit(location)
        owner = self._owner_cache.get(unit)
        if owner is None:
            owner = self._owner_fn(unit)
            if not 0 <= owner < self.n_nodes:
                raise OwnershipError(
                    f"owner_fn({unit!r}) = {owner} outside [0, {self.n_nodes})"
                )
            self._owner_cache[unit] = owner
        return owner

    def owns(self, node_id: int, location: str) -> bool:
        """True iff ``node_id`` owns the unit containing ``location``."""
        return self.owner(location) == node_id

    def is_read_only(self, location: str) -> bool:
        """True for locations declared constant (never invalidated)."""
        unit = self.unit(location)
        return any(unit.startswith(prefix) for prefix in self._read_only_prefixes)

    # ------------------------------------------------------------------
    # Convenience constructors
    # ------------------------------------------------------------------
    @classmethod
    def hashed(cls, n_nodes: int, read_only: Iterable[str] = ()) -> "Namespace":
        """Word-granularity namespace with hash-based ownership."""
        return cls(n_nodes, read_only=read_only)

    @classmethod
    def explicit(
        cls,
        n_nodes: int,
        owners: Dict[str, int],
        default: Optional[int] = None,
        read_only: Iterable[str] = (),
    ) -> "Namespace":
        """Ownership from an explicit unit -> owner table.

        Unlisted units fall back to ``default`` if given, else to the
        stable hash.
        """
        table = dict(owners)

        def owner_fn(unit: str) -> int:
            if unit in table:
                return table[unit]
            if default is not None:
                return default
            return _stable_hash(unit) % n_nodes

        return cls(n_nodes, owner_fn=owner_fn, read_only=read_only)

    @classmethod
    def by_first_index(
        cls, n_nodes: int, read_only: Iterable[str] = ()
    ) -> "Namespace":
        """Array rows owned by their first index: ``dict[i][j]`` -> node i.

        This is the dictionary application's layout (Section 4.2: process
        ``P_i`` owns all locations in row *i*).  Non-array locations fall
        back to the stable hash.
        """

        def owner_fn(unit: str) -> int:
            match = _ARRAY_RE.match(unit)
            if match:
                index = int(match.group("index"))
                if index < n_nodes:
                    return index
            return _stable_hash(unit) % n_nodes

        return cls(n_nodes, owner_fn=owner_fn, read_only=read_only)

    @classmethod
    def array_paged(
        cls,
        n_nodes: int,
        page_size: int,
        read_only: Iterable[str] = (),
    ) -> "Namespace":
        """Group array locations into pages of ``page_size`` elements.

        ``x[0]..x[page_size-1]`` share the unit ``x@page0`` and hence an
        owner and an invalidation fate — the paper's page-granularity
        enhancement.  Non-array locations are their own unit.
        """
        if page_size <= 0:
            raise OwnershipError(f"page_size must be positive, got {page_size}")

        def unit_fn(location: str) -> str:
            match = _ARRAY_RE.match(location)
            if match and not match.group("rest"):
                base = match.group("base")
                index = int(match.group("index"))
                return f"{base}@page{index // page_size}"
            return location

        return cls(n_nodes, unit_fn=unit_fn, read_only=read_only)
