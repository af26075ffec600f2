"""A causal bulletin board — a third application beyond the paper's two.

The classic motivating workload for causal consistency (and the one the
ISIS lineage used): a shared board where *replies must never be visible
before the posts they answer*.  Programs:

* ``post`` — write the post body into a slot of the shared board, then
  *announce* it by appending its id to the author's announcement cell
  (a different location, generally with a different owner);
* ``read_board`` — read announcement cells, then fetch announced posts.

On causal memory the pattern is safe by construction: the body write
causally precedes the announcement write, so a reader that sees the
announcement can never fetch a stale/empty body — the Figure 4
invalidation sweep evicts any stale cached body the moment the
announcement value is introduced.  On E13's write-behind mutant
(:func:`repro.harness.scenarios.write_behind` applied to ``cluster``)
the announcement can overtake the in-flight body write and readers
observe dangling announcements; tests use the contrast.

Posts may name a ``reply_to`` id the author has read, giving the
transitive invariant: any view containing a reply also contains every
ancestor post.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro.errors import ReproError
from repro.memory import Namespace, location_array
from repro.protocols.base import DSMCluster
from repro.sim.latency import LatencyModel

__all__ = ["Post", "BoardView", "BulletinBoard"]

#: Body value marking a slot that has not been written yet.
EMPTY = None


@dataclass(frozen=True)
class Post:
    """One post: globally unique id, author, text, optional parent id."""

    post_id: str
    author: int
    text: str
    reply_to: Optional[str] = None

    def packed(self) -> str:
        """The post as one string: memory words hold scalars, which is
        all the wire codec carries (DESIGN.md Section 4.5)."""
        return json.dumps([self.post_id, self.author, self.text, self.reply_to])

    @classmethod
    def unpacked(cls, cell: Any) -> Optional["Post"]:
        """The post a body cell holds, or None for an unwritten one."""
        return cls(*json.loads(cell)) if isinstance(cell, str) else None


@dataclass(frozen=True)
class BoardView:
    """One reader's snapshot of the board."""

    reader: int
    posts: Tuple[Post, ...]
    dangling: Tuple[str, ...]  # announced ids whose body was unreadable

    def ids(self) -> set:
        """The post ids visible in this view."""
        return {post.post_id for post in self.posts}

    def missing_parents(self) -> List[str]:
        """Reply parents not visible in the same view (must be empty on
        causal memory)."""
        visible = self.ids()
        return [
            post.reply_to
            for post in self.posts
            if post.reply_to is not None and post.reply_to not in visible
        ]


class BulletinBoard:
    """A shared board over causal DSM.

    Parameters
    ----------
    n:
        Number of author/reader processes.
    slots_per_author:
        Capacity of each author's announcement log.
    """

    def __init__(
        self,
        n: int,
        slots_per_author: int = 8,
        seed: int = 0,
        latency: Optional[LatencyModel] = None,
        record_history: bool = True,
    ):
        if n <= 0 or slots_per_author <= 0:
            raise ReproError("need positive dimensions")
        self.n = n
        self.slots = slots_per_author
        # Announcement cells live with their author; bodies are spread
        # over all nodes by hash, so announcing crosses owners — the
        # pattern causal memory exists to protect.
        self.cluster = DSMCluster(
            n_nodes=n,
            protocol="causal",
            seed=seed,
            latency=latency,
            namespace=Namespace(
                n,
                owner_fn=self._owner_fn,
            ),
            initial_value=EMPTY,
            record_history=record_history,
        )
        self._post_counters = [0] * n

    def _owner_fn(self, unit: str) -> int:
        if unit.startswith("ann["):
            return int(unit.split("[", 1)[1].split("]", 1)[0])
        import zlib

        return zlib.crc32(unit.encode()) % self.n

    # ------------------------------------------------------------------
    # Locations
    # ------------------------------------------------------------------
    def body_location(self, post_id: str) -> str:
        """Where a post body lives."""
        return f"body[{post_id}]"

    def announcement_location(self, author: int, index: int) -> str:
        """One cell of an author's announcement log."""
        return location_array("ann", author, index)

    # ------------------------------------------------------------------
    # Operations (generators)
    # ------------------------------------------------------------------
    def post(self, api, text: str, reply_to: Optional[str] = None):
        """Publish a post: body first, then the announcement."""
        author = api.node_id
        index = self._post_counters[author]
        if index >= self.slots:
            raise ReproError(f"author {author} exhausted the board")
        self._post_counters[author] += 1
        post_id = f"p{author}.{index}"
        body = Post(
            post_id=post_id, author=author, text=text, reply_to=reply_to
        )
        yield api.write(self.body_location(post_id), body.packed())
        yield api.write(self.announcement_location(author, index), post_id)
        return post_id

    def read_board(self, api, refresh: bool = True):
        """Scan all announcement logs, then fetch announced bodies."""
        if refresh:
            self.refresh(api)
        announced: List[str] = []
        for author in range(self.n):
            for index in range(self.slots):
                cell = yield api.read(
                    self.announcement_location(author, index)
                )
                if cell is EMPTY:
                    break
                announced.append(cell)
        posts: List[Post] = []
        dangling: List[str] = []
        for post_id in announced:
            body = Post.unpacked((yield api.read(self.body_location(post_id))))
            if body is not None:
                posts.append(body)
            else:
                dangling.append(post_id)
        return BoardView(
            reader=api.node_id, posts=tuple(posts), dangling=tuple(dangling)
        )

    def refresh(self, api) -> None:
        """Discard cached board state (the paper's liveness discard)."""
        for author in range(self.n):
            for index in range(self.slots):
                api.discard(self.announcement_location(author, index))

    def find(self, api, post_id: str):
        """Fetch one post body (None if not yet visible)."""
        api.discard(self.body_location(post_id))
        return Post.unpacked((yield api.read(self.body_location(post_id))))

    # ------------------------------------------------------------------
    # Cluster passthroughs
    # ------------------------------------------------------------------
    def spawn(self, node_id: int, process, *args, name: str = ""):
        """Spawn an application process on one node."""
        return self.cluster.spawn(node_id, process, *args, name=name)

    def run(self, **kwargs) -> None:
        """Run the simulation to completion."""
        self.cluster.run(**kwargs)

    @property
    def stats(self):
        """Network message statistics."""
        return self.cluster.stats

    def history(self):
        """The recorded operation history."""
        return self.cluster.history()
