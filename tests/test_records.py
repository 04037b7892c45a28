"""Value semantics of the record types: construction, equality and hashing,
repr text, read-only fields, and pickle and copy round trips."""

import copy
import pickle

import pytest

from wildrows import (
    BenchReport,
    BenchRow,
    EngineStats,
    FinalStack,
    Implication,
    ImplicationFamily,
    LayeredSpec,
    RankPolynomial,
    Row012,
    RowAB,
)
from wildrows.core import Bundle, Record, WildRow

B1, B2 = Bundle(1, 1, 0b110), Bundle(2, 4, 0b110000)
SPEC = LayeredSpec(2, 3, 1, 5)
STATS = EngineStats(4, 3, 1, 0, 2)
BENCH_ROW = BenchRow(SPEC, 10, 4, 1.5, 7, 2.25, True)


def records():
    """(record, an equal twin, one that differs in a compared field, the
    tuple of its compared fields, its repr)."""
    stack_rows = (Row012(2, 1, 2, 3),)
    return [
        (Implication({1, 2}, {2, 3}), Implication(frozenset({2, 1}), [3]),
         Implication({1}, {3}), (frozenset({1, 2}), frozenset({3})), "{1,2}->{3}"),
        (ImplicationFamily(3, [Implication({1}, {2})]),
         ImplicationFamily.from_masks(3, [(0b1, 0b11)]),
         ImplicationFamily(4, [Implication({1}, {2})]), (3, ((1, 2),)),
         "ImplicationFamily(w=3, implications=({1}->{2},))"),
        (Row012(3, 1, 2, 5), Row012(3, 1, 2, 9), Row012(3, 1, 4, 5), (3, 1, 2), "Row012(1 2 0)"),
        (RowAB(7, 0, 64, (B2, B1)), RowAB(7, 0, 64, (B1, B2), 7), RowAB(7, 64, 0, (B1, B2)),
         (7, 0, 64, (B1, B2)), "RowAB(a1 b1 b1 a2 b2 b2 2)"),
        (RankPolynomial([1, 2, 0]), RankPolynomial((1, 2)), RankPolynomial((1, 3)), ((1, 2),),
         "RankPolynomial(1, 2)"),
        (STATS, EngineStats(4, 3, 1, 0, 2), EngineStats(4, 3, 1, 0, 3), (4, 3, 1, 0, 2),
         "EngineStats(impositions=4, candidate_sons=3, killed_candidates=1, "
         "wasteful_deletions=0, final_row_count=2)"),
        (FinalStack(stack_rows, STATS), FinalStack((Row012(2, 1, 2),), EngineStats(4, 3, 1, 0, 2)),
         FinalStack((), STATS), (stack_rows, STATS),
         "FinalStack(rows=(Row012(1 2),), stats=EngineStats(impositions=4, candidate_sons=3, "
         "killed_candidates=1, wasteful_deletions=0, final_row_count=2))"),
        (SPEC, LayeredSpec(2, 3, 1, 5), LayeredSpec(2, 3, 1, 6), (2, 3, 1, 5),
         "LayeredSpec(m=2, l=3, t=1, seed=5)"),
        (BENCH_ROW, BenchRow(SPEC, 10, 4, 1.5, 7, 2.25, True, False),
         BenchRow(SPEC, 10, 4, 1.5, 7, 2.25, True, True), (SPEC, 10, 4, 1.5, 7, 2.25, True, False),
         "BenchRow(spec=LayeredSpec(m=2, l=3, t=1, seed=5), n=10, r=4, time_ab_ms=1.5, nsum=7, "
         "time_rec_ms=2.25, agree=True, timed_out=False)"),
        (BenchReport((BENCH_ROW,)), BenchReport((BenchRow(SPEC, 10, 4, 1.5, 7, 2.25, True),)),
         BenchReport(()), ((BENCH_ROW,),),
         "BenchReport(rows=(BenchRow(spec=LayeredSpec(m=2, l=3, t=1, seed=5), n=10, r=4, "
         "time_ab_ms=1.5, nsum=7, time_rec_ms=2.25, agree=True, timed_out=False),))"),
    ]


RECORDS = records()
IDS = [type(r[0]).__name__ for r in RECORDS]
UNHASHABLE = (EngineStats, FinalStack)  # EngineStats is mutable; a FinalStack holds one


@pytest.mark.parametrize("record, twin, other, key, text", RECORDS, ids=IDS)
def test_equality_and_hash_follow_the_compared_fields(record, twin, other, key, text):
    assert record == twin and not record != twin
    assert record != other and not record == other
    assert record.__eq__(key) is NotImplemented and record != key
    if isinstance(record, UNHASHABLE):
        with pytest.raises(TypeError, match="unhashable"):
            hash(record)
    else:
        assert hash(record) == hash(twin) == hash(key)


def record_types(cls=Record):
    for sub in cls.__subclasses__():
        if sub is not WildRow:
            yield sub
        yield from record_types(sub)


def test_every_record_type_hashes_as_its_field_tuple():
    # equality and hash go through per-class field getters; each must give
    # the tuple of the fields it is built from, for every record type
    assert {type(r[0]) for r in RECORDS} == set(record_types())
    for record, _, _, key, _ in RECORDS:
        fields = vars(type(record)).get("__slots__", ("w", "masks"))  # ImplicationFamily: none
        values = tuple(getattr(record, name) for name in fields)
        assert record._values() == values
        assert key == (values[:-1] if isinstance(record, WildRow) else values)
        if not isinstance(record, UNHASHABLE):
            assert hash(record) == hash(key)
    w, o, t, p = 40, 5, 1 << 20, 3
    assert hash(Row012(w, o, t, p)) == hash((w, o, t))
    assert hash(RankPolynomial((1, 2))) == hash(((1, 2),))


@pytest.mark.parametrize("record, twin, other, key, text", RECORDS, ids=IDS)
def test_repr_text(record, twin, other, key, text):
    assert repr(record) == text


@pytest.mark.parametrize("record, twin, other, key, text", RECORDS, ids=IDS)
def test_fields_are_read_only(record, twin, other, key, text):
    if isinstance(record, EngineStats):
        return
    for name in ("w", "masks", "ones_mask", "pending", "next_bundle", "premise", "coefficients",
                 "rows", "stats", "m", "spec", "timed_out", "elsewhere"):
        before = repr(record)
        with pytest.raises(AttributeError):
            setattr(record, name, 1)
        with pytest.raises(AttributeError):
            delattr(record, name)
        assert repr(record) == before and record == twin


def test_engine_stats_stay_mutable():
    s = EngineStats()
    s.impositions += 3
    s.final_row_count = 1
    assert s == EngineStats(impositions=3, final_row_count=1)


@pytest.mark.parametrize("record, twin, other, key, text", RECORDS, ids=IDS)
def test_pickle_and_copy_round_trips(record, twin, other, key, text):
    copies = [pickle.loads(pickle.dumps(record, protocol))
              for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
    copies += [copy.copy(record), copy.deepcopy(record)]
    for c in copies:
        assert type(c) is type(record) and c == record and repr(c) == text
        assert getattr(c, "pending", None) == getattr(record, "pending", None)
        assert getattr(c, "next_bundle", None) == getattr(record, "next_bundle", None)


def test_bookkeeping_fields_survive_round_trips():
    row, ab = Row012(3, 1, 2, 5), RowAB(7, 0, 64, (B1, B2), 7)
    for copy_of in (lambda r: pickle.loads(pickle.dumps(r)), copy.deepcopy, copy.copy):
        assert copy_of(row).pending == 5 and copy_of(ab).next_bundle == 7
    family = pickle.loads(pickle.dumps(ImplicationFamily(3, [Implication({1}, {2, 3})])))
    assert family.implications == (Implication({1}, {2, 3}),) and family.h == 1


def test_positional_and_keyword_construction():
    assert Implication(premise={1}, conclusion={1, 2}) == Implication({1}, {2})
    assert ImplicationFamily(w=2, implications=[Implication({1}, {2})]).masks == ((1, 2),)
    row = Row012(w=3, ones_mask=1, twos_mask=2, pending=5)
    assert (row.w, row.ones_mask, row.twos_mask, row.pending) == (3, 1, 2, 5)
    assert Row012(3, 1, 2).pending == 1
    ab = RowAB(w=7, ones_mask=0, twos_mask=64, bundles=(B2, B1), next_bundle=7)
    assert (ab.w, ab.ones_mask, ab.twos_mask, ab.bundles, ab.next_bundle) == (7, 0, 64, (B1, B2), 7)
    assert RowAB(7, 0, 64, (B2, B1)).next_bundle == 3
    assert RowAB(3, 1, 2).bundles == () and RowAB(3, 1, 2).next_bundle == 1
    assert RankPolynomial(coefficients=[0, 1, 0]).coefficients == (0, 1)
    stats = EngineStats(1, candidate_sons=2, final_row_count=5)
    assert (stats.impositions, stats.candidate_sons, stats.killed_candidates,
            stats.wasteful_deletions, stats.final_row_count) == (1, 2, 0, 0, 5)
    assert EngineStats() == EngineStats(0, 0, 0, 0, 0)
    stack = FinalStack(rows=(row,), stats=stats)
    assert stack.rows == (row,) and stack.stats is stats
    spec = LayeredSpec(m=2, l=3, t=1, seed=5)
    assert (spec.m, spec.l, spec.t, spec.seed, spec.w) == (2, 3, 1, 5, 6)
    bench_row = BenchRow(spec=spec, n=10, r=4, time_ab_ms=1.5, nsum=7, time_rec_ms=2.25, agree=True)
    assert bench_row == BENCH_ROW and bench_row.timed_out is False
    assert BenchReport(rows=(bench_row,)).rows == (bench_row,)
