"""A second derivation of the compact ab rows: the paper's loop replayed
through the public, checking `ab_impose`, one imposition per element with
lower covers in linear-extension order, blocked-by-zero impositions
included, premise-out son first, LIFO.  `ab_enumerate` skips the elements a
new zero has already zeroed; its rows, in order, must be the replay's."""

import pytest

from wildrows import Bundle, LayeredSpec, Poset, RowAB, SplitMix64, ab_enumerate, ab_impose, gen_layered_poset, parse_row


def replay(p):
    schedule = [j for j in p.linext if p.lower_covers(j)]
    stack = [(RowAB.full(p.w), 0)]
    rows = []
    while stack:
        row, i = stack.pop()
        for j in schedule[i:]:
            i += 1
            sons = ab_impose(row, j, p.lower_covers(j))
            row = sons[0]
            if len(sons) == 2:
                stack.append((sons[1], i))
        rows.append(row)
    return rows


def shape(rows):
    """Every field of each row, the bookkeeping `next_bundle` included."""
    return [(r.w, r.ones_mask, r.twos_mask, r.bundles, r.next_bundle) for r in rows]


def posets():
    rng = SplitMix64(2621)
    for m, l, t in [(3, 4, 1), (4, 4, 2), (3, 5, 3), (5, 3, 2), (2, 6, 2), (6, 2, 4)]:
        for seed in (1, 2):
            p = gen_layered_poset(LayeredSpec(m, l, t, 100 * m + l + 7 * t + seed))
            label = [0] + rng.sample(p.elements, p.w)
            yield p
            yield Poset(p.w, [(label[u], label[v]) for u in p.elements for v in p.upper_covers(u)])
    for w in (0, 1, 2, 9):
        yield Poset.chain(w)
        yield Poset(w, [(e + 1, e) for e in range(1, w)])  # the falling chain
        yield Poset.antichain(w)


@pytest.mark.parametrize("p", list(posets()), ids=lambda p: f"w{p.w}")
def test_ab_enumerate_is_the_replayed_loop(p):
    assert shape(ab_enumerate(p)) == shape(replay(p))


def test_blocked_by_zero_still_serves_ab_impose():
    # 2 <- {1, 4}: the conclusion meets the zero at 1, so 2 becomes zero
    r = parse_row("0 2 2 1", kind="ab")
    assert ab_impose(r, 2, {1, 4}) == [parse_row("0 0 2 1", kind="ab")]
    # on 0 2 2 a1 b1 b1 with fresh ids from 4 on, 2 <- {1, 3} meets the zero
    # at 1: position 2 becomes zero, the bundles and next_bundle stay
    r = RowAB(6, 0, 0b110, (Bundle(1, 4, 0b110000),), 4)
    (son,) = ab_impose(r, 2, {1, 3})
    assert shape([son]) == [(6, 0, 0b100, (Bundle(1, 4, 0b110000),), 4)]
    assert son == parse_row("0 0 2 a1 b1 b1", kind="ab")
