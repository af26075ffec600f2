"""Tests for the causal bulletin board application."""

import pytest

from repro.apps.bulletin import BulletinBoard, Post
from repro.checker import check_causal
from repro.errors import ReproError
from repro.harness.scenarios import write_behind
from repro.sim.latency import PerLinkLatency
from repro.sim.tasks import sleep


class TestPosting:
    def test_post_and_read_back(self):
        board = BulletinBoard(n=2)

        def author(api):
            post_id = yield from board.post(api, "hello world")
            view = yield from board.read_board(api)
            return (post_id, view)

        task = board.spawn(0, author)
        board.run()
        post_id, view = task.result()
        assert post_id == "p0.0"
        assert [p.text for p in view.posts] == ["hello world"]
        assert view.dangling == ()

    def test_capacity_enforced(self):
        board = BulletinBoard(n=1, slots_per_author=2)

        def author(api):
            yield from board.post(api, "one")
            yield from board.post(api, "two")
            yield from board.post(api, "three")

        board.spawn(0, author)
        with pytest.raises(ReproError, match="exhausted"):
            board.run()

    def test_ids_unique_across_authors(self):
        board = BulletinBoard(n=3)
        ids = []

        def author(api):
            ids.append((yield from board.post(api, f"by {api.node_id}")))

        for node in range(3):
            board.spawn(node, author)
        board.run()
        assert len(set(ids)) == 3


class TestCausalSafety:
    def test_announcement_never_dangles(self):
        """A reader that sees the announcement always sees the body."""
        board = BulletinBoard(n=3, seed=4)
        views = {}

        def author(api):
            yield from board.post(api, "root")

        def reader(api, me):
            yield sleep(board.cluster.sim, 20.0)
            views[me] = yield from board.read_board(api)

        board.spawn(0, author)
        board.spawn(1, reader, 1)
        board.spawn(2, reader, 2)
        board.run()
        for view in views.values():
            assert view.dangling == ()
            assert len(view.posts) == 1

    def test_reply_parents_always_visible(self):
        board = BulletinBoard(n=3, seed=5)
        views = {}

        def original_poster(api):
            yield from board.post(api, "question")

        def replier(api):
            yield sleep(board.cluster.sim, 10.0)
            view = yield from board.read_board(api)
            assert view.posts, "replier must see the question"
            parent = view.posts[0].post_id
            yield from board.post(api, "answer", reply_to=parent)

        def reader(api):
            yield sleep(board.cluster.sim, 30.0)
            views["reader"] = yield from board.read_board(api)

        board.spawn(0, original_poster)
        board.spawn(1, replier)
        board.spawn(2, reader)
        board.run()
        view = views["reader"]
        assert view.missing_parents() == []
        assert {p.text for p in view.posts} == {"question", "answer"}

    def test_history_is_causal(self):
        board = BulletinBoard(n=3, seed=6)

        def chatter(api, me):
            yield from board.post(api, f"hi from {me}")
            yield sleep(board.cluster.sim, 15.0)
            view = yield from board.read_board(api)
            if view.posts:
                yield from board.post(
                    api, "re", reply_to=view.posts[0].post_id
                )

        for node in range(3):
            board.spawn(node, chatter, node)
        board.run()
        assert check_causal(board.history()).ok


class TestWriteBehindAnomaly:
    def _run(self, unsafe: bool):
        # Slow the author->body-owner link so the announcement can
        # overtake the in-flight body write under write-behind.
        board = BulletinBoard(n=3, seed=7)
        if unsafe:
            write_behind(board.cluster)
        body_owner = board.cluster.namespace.owner(board.body_location("p0.0"))
        ann_owner = board.cluster.namespace.owner(
            board.announcement_location(0, 0)
        )
        if body_owner == 0 or body_owner == ann_owner:
            pytest.skip("hash layout does not cross owners for this seed")
        latency = PerLinkLatency(default=1.0, links={(0, body_owner): 30.0})
        board.cluster.network.latency = latency
        result = {}

        def author(api):
            yield from board.post(api, "root")

        def reader(api):
            yield board.cluster.watch(
                board.announcement_location(0, 0), lambda v: v == "p0.0"
            )
            result["view"] = yield from board.read_board(api)

        board.spawn(0, author)
        board.spawn(1, reader)
        board.run()
        return result["view"]

    def test_blocking_writes_no_dangling(self):
        view = self._run(unsafe=False)
        assert view.dangling == ()

    def test_write_behind_dangles(self):
        view = self._run(unsafe=True)
        assert view.dangling == ("p0.0",)
