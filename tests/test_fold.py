"""The cut fold shared by the sum and minres drawers, against brute force.

Each child of the cut vertex gets up to three options, each a block rope
with the cut vertex first; option j lists the child's own vertices rotated
by j, so a materialized order tells which option of which child lies where.
"""

import random

import pytest

from bookembed import seq
from bookembed.blocks import fold_cut

C = "c"


def _children(rng, keep):
    """Up to six children with up to three options ``(rope, room, grow)``
    each, sorted by ``grow`` as the drawers hand them over, and each
    option's own vertices in rope order."""
    children, layouts = [], []
    for i in range(rng.randint(1, 6)):
        k = rng.randint(1, 3)
        own = [(i, x) for x in range(rng.randint(k, k + 2))]
        grows = sorted(rng.sample(range(1, 12), k))
        # a sum child's options rise in free space with their extension
        rooms = [rng.randint(1, 12) for _ in grows] if keep else sorted(rng.sample(range(1, 13), k))
        layouts.append([tuple(own[j:] + own[:j]) for j in range(k)])
        children.append([
            (seq.blk((C, *layout)), room, grow)
            for layout, room, grow in zip(layouts[-1], rooms, grows)
        ])
    return children, layouts


def _brute_front(children, keep):
    """Pareto-minimal (left, right) over every (side, option) assignment."""
    finals = set()

    def place(i, left, right):
        if i == len(children):
            finals.add((left, right))
            return
        for _rope, room, grow in children[i]:
            if room > right:
                place(i + 1, left, grow + keep * right)
            if room > left:
                place(i + 1, grow + keep * left, right)

    place(0, 0, 0)
    return {p for p in finals
            if not any(q != p and q[0] <= p[0] and q[1] <= p[1] for q in finals)}


def _placements(order, layouts):
    """``(child, side, option)`` of every child, read outward from C."""
    assert order.count(C) == 1
    at = order.index(C)
    placed = []
    for side, run in ((0, order[:at][::-1]), (1, order[at + 1:])):
        while run:
            i = run[0][0]
            own = tuple(run[:len(layouts[i][0])])
            run = run[len(own):]
            placed.append((i, side, layouts[i].index(own)))
    return placed


@pytest.mark.parametrize("keep", [0, 1], ids=["sum", "minres"])
def test_fold_matches_brute_force(keep):
    rng = random.Random(2026 + keep)
    empty = 0
    for _ in range(300):
        children, layouts = _children(rng, keep)
        entries = fold_cut(C, children, keep)
        want = _brute_front(children, keep)
        if not want:
            assert entries is None
            empty += 1
            continue
        assert {(left, right) for _rope, left, right in entries} == want
        lefts = [left for _rope, left, _right in entries]
        rights = [right for _rope, _left, right in entries]
        assert lefts == sorted(set(lefts)) and rights == sorted(set(rights), reverse=True)
        for rope, left, right in entries:
            placed = _placements(seq.materialize(rope), layouts)
            # every child once, each side's children outward in fold order
            assert sorted(i for i, _side, _j in placed) == list(range(len(children)))
            for side in (0, 1):
                mine = [i for i, s, _j in placed if s == side]
                assert mine == sorted(mine)
            # replaying the placements gives the entry's values
            ext = [0, 0]
            for i, side, j in sorted(placed):
                _rope, room, grow = children[i][j]
                assert room > ext[side]
                ext[side] = grow + keep * ext[side]
            assert ext == [left, right]
    assert 0 < empty < 300
