import itertools

import pytest
from conftest import ideals_by_sweep, random_poset, random_rowab, sets_of

from wildrows import (
    InputError,
    Poset,
    RowAB,
    SplitMix64,
    ab_enumerate,
    ab_impose,
    cardinality_poly,
    gen_layered_poset,
    parse_row,
    render_row,
    rowab_count,
    rowab_members,
    whitney,
)
from wildrows import LayeredSpec


def members_by_sweep(r):
    for bits in itertools.product([0, 1], repeat=r.w):
        x = frozenset(i + 1 for i, b in enumerate(bits) if b)
        if x in r:
            yield x


# ---------------------------------------------------------------------------
# single imposition

def test_impose_creates_fresh_bundle():
    sons = ab_impose(RowAB.full(7), 5, {6, 7})
    assert [render_row(r) for r in sons] == ["2 2 2 2 a1 b1 b1"]


def test_impose_conclusion_blocked_by_zero():
    sons = ab_impose(parse_row("0 2 2", kind="ab"), 3, {1})
    assert [render_row(r) for r in sons] == ["0 2 0"]


def test_impose_conclusion_already_forced():
    r = parse_row("1 1 2", kind="ab")
    assert ab_impose(r, 3, {1, 2}) == [r]


def test_impose_rejects_non_free_premise_position():
    with pytest.raises(ValueError):
        ab_impose(parse_row("1 2 2", kind="ab"), 1, {2})


def test_impose_rejects_premise_inside_conclusion():
    with pytest.raises(ValueError) as info:
        ab_impose(parse_row("2 2 2", kind="ab"), 1, {1, 2})
    assert str(info.value) == "premise position inside its own conclusion"


@pytest.mark.parametrize("j", [0, -1, 4])
def test_impose_refuses_premise_position_outside_row(j):
    with pytest.raises(InputError) as info:
        ab_impose(RowAB.full(3), j, {2})
    assert str(info.value) == f"element {j} outside universe 1..3"


def test_impose_rejects_conclusion_outside_row():
    with pytest.raises(InputError) as info:
        ab_impose(RowAB.full(3), 1, {4})
    assert str(info.value) == "element 4 outside universe 1..3"


def test_impose_split_over_bundles():
    # positions: 1=b1 2=b2 3=0 | conclusion 4..9: b4 b2 a1 a2 b3 2 | 10=b3
    # 11=a3 12=a4 13=premise(2) 14=2
    r = parse_row("b1 b2 0 b4 b2 a1 a2 b3 2 b3 a3 a4 2 2")
    conclusion = {4, 5, 6, 7, 8, 9}
    out, ins = ab_impose(r, 13, conclusion)
    assert render_row(out) == "b1 b2 0 b4 b2 a1 a2 b3 2 b3 a3 a4 0 2"
    # premise-in row: bundles 1, 2, 4 dissolve, bundle 3 shrinks to one
    # conclusion position, the emptied bundle-4 premise relaxes to 2
    assert render_row(ins) == "1 1 0 1 1 1 1 1 1 b3 a3 2 1 2"
    # partition check against the membership semantics
    satisfying = {x for x in members_by_sweep(r) if 13 not in x or conclusion <= x}
    got_out, got_in = set(members_by_sweep(out)), set(members_by_sweep(ins))
    assert not (got_out & got_in)
    assert got_out | got_in == satisfying


def test_impose_partitions_satisfying_members_random():
    rng = SplitMix64(137)
    tried = 0
    while tried < 80:
        w = 3 + rng.below(8)
        r = random_rowab(rng, w)
        if not r.twos_mask:
            continue
        free = sorted(r.twos)
        j = free[rng.below(len(free))]
        rest = [e for e in range(1, w + 1) if e != j]
        b = frozenset(rng.sample(rest, 1 + rng.below(min(4, len(rest)))))
        tried += 1
        sons = ab_impose(r, j, b)
        assert len(sons) in (1, 2)
        satisfying = {x for x in members_by_sweep(r) if j not in x or b <= x}
        covered = []
        for son in sons:
            covered.extend(members_by_sweep(son))
        assert len(covered) == len(set(covered)), "sons overlap"
        assert set(covered) == satisfying


def test_impose_never_reuses_bundle_ids():
    (r1,) = ab_impose(RowAB.full(6), 3, {1, 2})
    assert render_row(r1) == "b1 b1 a1 2 2 2"
    _, forced = ab_impose(r1, 4, {3})  # premise of bundle 1 forced: dissolved
    assert render_row(forced) == "1 1 1 1 2 2"
    (fresh,) = ab_impose(forced, 5, {6})  # fresh bundle takes id 2, not 1
    assert render_row(fresh) == "1 1 1 1 a2 b2"


def test_impose_emptied_conclusion_relaxes_premise_position():
    (r1,) = ab_impose(RowAB.full(4), 2, {1})
    assert render_row(r1) == "b1 a1 2 2"
    _, forced = ab_impose(r1, 3, {1})  # forces the only b1 to one
    assert render_row(forced) == "1 2 1 2"  # a1 position relaxed to 2


# ---------------------------------------------------------------------------
# full enumeration

def test_ab_enumerate_antichain_single_row():
    rows = ab_enumerate(Poset.antichain(5))
    assert [render_row(r) for r in rows] == ["2 2 2 2 2"]


def test_ab_enumerate_chain_total():
    rows = ab_enumerate(Poset.chain(3))
    members = [m for r in rows for m in members_by_sweep(r)]
    assert len(members) == len(set(members))
    assert sets_of(members) == [(), (1,), (1, 2), (1, 2, 3)]


def test_ab_enumerate_matches_brute_ideals():
    rng = SplitMix64(139)
    posets = [gen_layered_poset(LayeredSpec(3, 3, 1, seed=5))]
    for _ in range(10):
        posets.append(random_poset(rng, 1 + rng.below(10)))
    for p in posets:
        rows = ab_enumerate(p)
        members = [m for r in rows for m in members_by_sweep(r)]
        assert len(members) == len(set(members)), "rows overlap"
        expect = list(ideals_by_sweep(p))
        assert sets_of(members) == sets_of(expect)
        assert len(rows) <= len(expect)  # R never exceeds N


def test_ab_enumerate_matches_brute_ideals_wider():
    # same property at the upper end of the desk-scale range; the per-row
    # member generator stands in for the full powerset sweep
    rng = SplitMix64(141)
    for w in (12, 14):
        p = random_poset(rng, w)
        rows = ab_enumerate(p)
        members = [m for r in rows for m in rowab_members(r)]
        assert len(members) == len(set(members)), "rows overlap"
        assert sets_of(members) == sets_of(ideals_by_sweep(p))


def test_ab_enumerate_structurally_disjoint_at_scale():
    # rows coming out of distinct branches always disagree 0-vs-1 on the
    # position that split them; certify that structurally where sweeping
    # memberships is out of reach
    p = gen_layered_poset(LayeredSpec(5, 6, 2, seed=77))  # w = 30
    rows = ab_enumerate(p)
    assert sum(rowab_count(r) for r in rows) == whitney(p).evaluate(1)
    for i in range(len(rows)):
        for j in range(i + 1, len(rows)):
            a, b = rows[i], rows[j]
            assert (a.ones_mask & b.zeros_mask) or (b.ones_mask & a.zeros_mask)


def test_ab_enumerate_deterministic():
    p = gen_layered_poset(LayeredSpec(3, 3, 2, seed=12))
    a = [render_row(r) for r in ab_enumerate(p)]
    b = [render_row(r) for r in ab_enumerate(p)]
    assert a == b


# ---------------------------------------------------------------------------
# cardinality polynomials

def test_cardinality_poly_worked_row():
    r = parse_row("0 0 1 1 2 2 2 a1 b1 b1 a2 b2 b2 b2 a3 b3")
    poly = cardinality_poly(r)
    # x^2 (1+x)^3 (1+2x+x^2+x^3) (1+3x+3x^2+x^3+x^4) (1+x+x^2), frozen
    assert poly.coefficients == (0, 0, 1, 9, 37, 93, 162, 210, 211, 168, 107, 54, 21, 6, 1)
    assert poly.coefficient(5) == 93
    assert poly.evaluate(1) == 1080 == rowab_count(r)


def test_cardinality_poly_trivial_rows():
    assert cardinality_poly(parse_row("2 2 2", kind="ab")).coefficients == (1, 3, 3, 1)
    assert cardinality_poly(parse_row("a1 b1 b1")).coefficients == (1, 2, 1, 1)


def test_cardinality_poly_counts_members_random():
    rng = SplitMix64(149)
    for _ in range(30):
        w = 2 + rng.below(9)
        r = random_rowab(rng, w)
        poly = cardinality_poly(r)
        by_k = [0] * (w + 1)
        for m in members_by_sweep(r):
            by_k[len(m)] += 1
        assert poly.padded(w) == tuple(by_k)
        assert poly.evaluate(1) == rowab_count(r)


# ---------------------------------------------------------------------------
# Whitney numbers

def test_whitney_small_shapes():
    assert whitney(Poset.antichain(3)).coefficients == (1, 3, 3, 1)
    assert whitney(Poset.chain(3)).coefficients == (1, 1, 1, 1)


def test_whitney_matches_sweep_counts():
    rng = SplitMix64(151)
    for _ in range(10):
        w = 1 + rng.below(9)
        p = random_poset(rng, w)
        counts = [0] * (w + 1)
        for x in ideals_by_sweep(p):
            counts[len(x)] += 1
        assert whitney(p).padded(w) == tuple(counts)
