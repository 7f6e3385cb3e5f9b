"""Row mode of the compiled program: small deltas, and dict views.

Every relation of every engine has a compiled
:class:`~repro.engine.compile.FusedPath`, and every delta goes through
it: on a slot-store engine (numeric COVAR, MI, mixed COVAR, decayed
COVAR) columnar from ``COLUMNAR_MIN_DELTA`` keys on and row mode below;
on dict views (count, sum, the semirings, the reference rings) row mode
at every size. These tests pin that the two modes leave the same views
bit for bit and the same counters (mode-named ones mapped), that row
mode builds no :class:`~repro.data.relation.Relation`, that stage timing
covers it, that a path without bulk-liftable lifts runs row mode at
every size, and that every ring's programs match naive re-evaluation.
"""

import pickle
from collections import Counter
from contextlib import ExitStack
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import EngineConfig, create_engine
from repro.data import Relation
from repro.datasets import (
    RetailerConfig,
    UpdateStream,
    continuous_covar_features,
    generate_retailer,
    retailer_query,
    retailer_row_factories,
    retailer_variable_order,
    toy_covar_categorical_query,
    toy_covar_continuous_query,
    toy_database,
    toy_count_query,
    toy_mi_query,
    toy_query,
    toy_row_factories,
    toy_variable_order,
)
from repro.engine import FIVMEngine, NaiveEngine
from repro.engine import compile as compiled
from repro.engine.base import EngineStatistics
from repro.rings import BoolRing, CountSpec, CovarSpec, Feature, MinPlusRing, MISpec, SumSpec
from tests.conftest import row_mode
from tests.engine.test_initialize import BENCH_SEED
from tests.engine.test_stored_views import draw_delta
from tests.rings.reference_cofactor import GeneralFloatCovarSpec
from tests.sql_oracle import SqlOracle

CONFIG = RetailerConfig(locations=4, dates=6, items=20, inventory_rows=300, seed=11)

TOY_QUERIES = {
    "covar": toy_covar_continuous_query,
    "mi": toy_mi_query,
    "mixed": toy_covar_categorical_query,
    "decay": toy_covar_continuous_query,
}

RETAILER_SPECS = {
    "covar": lambda: CovarSpec(continuous_covar_features(limit=3)),
    "mi": lambda: MISpec(
        (
            Feature.categorical("ksn"),
            Feature.categorical("subcategory"),
            Feature.categorical("rain"),
        )
    ),
    "mixed": lambda: mixed_spec("medianage", "rgn_cd"),
    "decay": lambda: CovarSpec(continuous_covar_features(limit=3)),
}


def mixed_spec(first, second):
    """Mixed COVAR: two categorical features, ``inventoryunits`` and the
    two given continuous ones."""
    return CovarSpec(
        (
            Feature.categorical("subcategory"),
            Feature.continuous(first),
            Feature.continuous("inventoryunits"),
            Feature.categorical("rain"),
            Feature.continuous(second),
        )
    )


#: Bit-equality of the two modes needs exact float sums: columnar mode
#: group-sums with ``np.add.reduceat``, which does not add a group's rows
#: left to right as row mode does (on the toy leaf, 3b + 5b - 7b with
#: b = 1/0.9 differs in the last bit). The toy features and the retailer
#: features above are integer-valued, and a rate of 1/2 keeps every decay
#: boost a power of two, so every sum here is exact;
#: :func:`test_modes_agree_to_rounding_at_an_inexact_rate` covers a rate
#: whose boosts are not, and :func:`test_modes_agree_to_rounding_on_decimal_features`
#: the retailer's decimal ``prize`` and ``maxtemp``.
DECAY = "0.5/1000000"


def scenario(dataset, payload, decay=DECAY):
    """``(query, order, database, insert factories, config)``."""
    config = EngineConfig(decay=decay) if payload == "decay" else None
    if dataset == "toy":
        query = TOY_QUERIES[payload]()
        return query, toy_variable_order(), toy_database(), toy_row_factories(), config
    database = generate_retailer(CONFIG)
    query = retailer_query(RETAILER_SPECS[payload]())
    factories = retailer_row_factories(CONFIG, database)
    return query, retailer_variable_order(), database, factories, config


def columnar_mode():
    """Context manager: every delta takes the columnar mode."""
    return mock.patch.object(EngineStatistics, "COLUMNAR_MIN_DELTA", 1)


def exported_views(engine):
    return pickle.dumps(engine.export_state()["views"])


def assert_counters_correspond(row, columnar):
    """Every ``EngineStatistics`` counter of a row-mode engine against a
    columnar one fed the same batches: equal, or — for the counters that
    name the mode — mapped onto each other."""
    r, c = row.stats, columnar.stats
    assert r.fused_batches == r.columnar_batches == 0
    assert r.fused_steps == r.columnar_steps == r.mirror_hits == r.mirror_builds == 0
    assert c.fused_batches == c.columnar_batches == c.batches_applied
    assert c.probe_steps == 0 and c.fused_steps == c.columnar_steps == r.probe_steps
    assert c.mirror_hits + c.mirror_builds == c.fused_steps
    # Columnar looks up each distinct hook once, row mode each key (and,
    # like the interpreter it replaced, not at all in an empty sibling).
    assert c.index_hits <= r.index_hits
    # A key insert or delete drops a partial index's probe arrays; row
    # mode builds none after the (columnar) load, so it drops no more.
    assert c.mirror_invalidations >= r.mirror_invalidations
    mapped = {
        "fused_batches", "columnar_batches", "fused_steps", "columnar_steps",
        "probe_steps", "mirror_hits", "mirror_builds", "mirror_invalidations",
        "index_probes", "index_hits",
    }
    for name in EngineStatistics.COUNTER_FIELDS:
        if name not in mapped:
            assert getattr(r, name) == getattr(c, name), name
    assert r.scan_steps == 0
    assert r.views_rebuilt == c.views_rebuilt
    assert r.view_sizes == c.view_sizes


STEPS = st.lists(
    st.tuples(
        st.integers(0, 4),  # an observed relation, or the next new one
        st.integers(1, 14),  # updates in the delta
        st.integers(0, 2**16),
        st.booleans(),  # a decay tick after the delta
    ),
    min_size=1,
    max_size=6,
)


def run_both_modes(scenario_, first_deltas, steps):
    """A row-mode and a columnar-mode engine fed the same deltas."""
    query, order, database, factories, config = scenario_
    row, columnar = (create_engine(query, config=config, order=order) for _ in "rc")
    for engine in (row, columnar):
        engine.initialize(database)
    shadow = database.copy()
    observed = []
    for pick, size, seed, tick in steps:
        name = first_deltas[min(pick, len(observed), len(first_deltas) - 1)]
        delta = draw_delta(shadow, factories, name, size, seed)
        if delta is None:
            continue
        with row_mode():
            row.apply(name, delta)
        with columnar_mode():
            columnar.apply(name, delta)
        shadow.apply(name, delta)
        if name not in observed:
            observed.append(name)
        if tick and config is not None:
            for engine in (row, columnar):
                engine.advance_decay(1)
    return row, columnar


@pytest.mark.parametrize("payload", ["covar", "mi", "mixed", "decay"])
@pytest.mark.parametrize("dataset", ["toy", "retailer"])
@settings(max_examples=12)
@given(data=st.data())
def test_row_mode_equals_columnar_mode(dataset, payload, data):
    """Row ≡ columnar, bit for bit in every view and counter, whatever
    the insert/delete stream, the batch sizes and the order in which
    relations are first observed."""
    scenario_ = scenario(dataset, payload)
    first_deltas = data.draw(st.permutations(sorted(scenario_[0].relation_names)))
    row, columnar = run_both_modes(scenario_, first_deltas, data.draw(STEPS))
    assert exported_views(row) == exported_views(columnar)
    assert_counters_correspond(row, columnar)


@settings(max_examples=12)
@given(data=st.data())
def test_modes_agree_to_rounding_at_an_inexact_rate(data):
    scenario_ = scenario("toy", "decay", decay="0.9/1000000")
    first_deltas = data.draw(st.permutations(sorted(scenario_[0].relation_names)))
    row, columnar = run_both_modes(scenario_, first_deltas, data.draw(STEPS))
    for name in row.tree.views:
        assert row.view(name).close_to(columnar.view(name), 1e-12), name
    assert_counters_correspond(row, columnar)


@settings(max_examples=12)
@given(data=st.data())
def test_modes_agree_to_rounding_on_decimal_features(data):
    """Products of two-decimal prices and one-decimal temperatures are
    inexact, so the modes' summation orders show in the last bit."""
    query, order, database, factories, config = scenario("retailer", "mixed")
    query = retailer_query(mixed_spec("prize", "maxtemp"))
    scenario_ = (query, order, database, factories, config)
    first_deltas = data.draw(st.permutations(sorted(query.relation_names)))
    row, columnar = run_both_modes(scenario_, first_deltas, data.draw(STEPS))
    for name in row.tree.views:
        assert row.view(name).close_to(columnar.view(name), 1e-12), name
    assert_counters_correspond(row, columnar)


# ----------------------------------------------------------------------
# What a single-tuple update costs
# ----------------------------------------------------------------------


def row_mode_cost_on_trickle(updates=200, warm=100):
    """Per warm single-tuple Inventory update on the bench-shaped trickle
    scenario (``retailer_covar_trickle``: 12-feature numeric COVAR over
    40k Inventory rows): the :class:`Relation` objects built inside
    ``apply``, and the ring calls it makes by method name (outermost
    calls only, not the ones a ring method makes on itself)."""
    config = RetailerConfig(
        locations=32, dates=90, items=900, inventory_rows=40_000, seed=BENCH_SEED
    )
    database = generate_retailer(config)
    engine = FIVMEngine(
        retailer_query(CovarSpec(continuous_covar_features(limit=12))),
        order=retailer_variable_order(),
    )
    engine.initialize(database)
    stream = UpdateStream(
        database,
        retailer_row_factories(config, database),
        targets=("Inventory",),
        batch_size=1,
        insert_ratio=0.5,
        seed=BENCH_SEED,
    )
    batches = [stream.next_batch() for _ in range(warm + updates)]
    for batch in batches[:warm]:
        engine.apply(*batch)
    ring_type = type(engine.plan.ring)
    calls = Counter()
    relations = Counter()
    depth = [0]

    def counting(name, original):
        def counted(*args, **kwargs):
            if not depth[0]:
                calls[name] += 1
            depth[0] += 1
            try:
                return original(*args, **kwargs)
            finally:
                depth[0] -= 1

        return counted

    with ExitStack() as stack:
        for name in dir(ring_type):
            original = getattr(ring_type, name)
            if not name.startswith("_") and callable(original):
                stack.enter_context(
                    mock.patch.object(ring_type, name, counting(name, original))
                )
        init = Relation.__init__

        def counted_init(self, *args, **kwargs):
            relations["built"] += 1
            init(self, *args, **kwargs)

        stack.enter_context(mock.patch.object(Relation, "__init__", counted_init))
        for batch in batches[warm:]:
            engine.apply(*batch)
    assert engine.stats.fused_batches == 0
    return {
        "relations_per_update": relations["built"] / updates,
        "ring_calls_per_update": {
            name: round(count / updates, 2) for name, count in sorted(calls.items())
        },
    }


def test_row_mode_cost_on_trickle():
    """Pinned: a single-tuple update builds no Relation (the interpreter
    it replaced built ~7: lift, 3 probes, 3 marginalizes), and costs the
    3 sibling products and the lifts of the Inventory path."""
    cost = row_mode_cost_on_trickle()
    assert cost["relations_per_update"] == 0
    calls = cost["ring_calls_per_update"]
    # One product per probe match (3 siblings, each keyed on the hook),
    # one per lifted value at the leaf (times ``one``) and up the path.
    assert calls["mul"] == 7
    assert calls["scale"] == 1 and calls["one"] == 1


# ----------------------------------------------------------------------
# Stage timing, mode choice
# ----------------------------------------------------------------------


def small_retailer_engine():
    """A covar engine on the small retailer, and a seeded Inventory
    stream over the same database."""
    database = generate_retailer(CONFIG)
    engine = FIVMEngine(
        retailer_query(RETAILER_SPECS["covar"]()), order=retailer_variable_order()
    )
    engine.initialize(database)
    return engine, inventory_stream(database, batch_size=1, seed=5)


def inventory_stream(database, batch_size, seed):
    return UpdateStream(
        database,
        retailer_row_factories(CONFIG, database),
        targets=("Inventory",),
        batch_size=batch_size,
        insert_ratio=0.6,
        seed=seed,
    )


def test_profile_stages_cover_row_mode():
    engine, stream = small_retailer_engine()
    engine.profile_stages = True
    for _ in range(20):
        engine.apply(*stream.next_batch())
    assert engine.stats.fused_batches == 0
    assert set(engine.stats.stage_seconds) == {
        "lift", "probe", "multiply", "group", "scatter",
    }
    assert all(seconds > 0 for seconds in engine.stats.stage_seconds.values())


def test_profile_stages_off_records_nothing():
    engine, stream = small_retailer_engine()
    for _ in range(5):
        engine.apply(*stream.next_batch())
    assert engine.stats.stage_seconds == {}


def test_every_slot_store_relation_has_a_program_and_no_relation_is_built():
    engine, stream = small_retailer_engine()
    assert set(engine._fused_paths) == set(engine.query.relation_names)
    batches = [stream.next_batch() for _ in range(5)]
    with mock.patch.object(Relation, "__init__", side_effect=AssertionError):
        for batch in batches:
            engine.apply(*batch)
    assert engine.stats.probe_steps == 15 and engine.stats.fused_batches == 0


def test_count_views_get_a_row_mode_program_and_no_relation_is_built():
    """Count views are dict relations, maintained by the same compiled
    programs in row mode — at every batch size, building no Relation."""
    database = generate_retailer(CONFIG)
    count = FIVMEngine(retailer_query(CountSpec()), order=retailer_variable_order())
    count.initialize(database)
    assert set(count._fused_paths) == set(count.query.relation_names)
    assert not any(fpath.bulk for fpath in count._fused_paths.values())
    stream = inventory_stream(database, batch_size=100, seed=9)
    batches = [stream.next_batch() for _ in range(3)]
    with mock.patch.object(Relation, "__init__", side_effect=AssertionError):
        for batch in batches:
            count.apply(*batch)
    assert count.stats.probe_steps == 9 and count.stats.fused_batches == 0


#: ``name -> (query, config)`` over the toy schema, one per payload ring
#: the engine runs: scalar (count, sum), the semirings, the cofactor
#: rings on slot stores (numeric and sparse COVAR, MI, decayed COVAR) and
#: the dict-based reference ring — plus a decayed sum, which keeps the
#: sum's dict views. Toy values are small integers, so every float sum is
#: exact and every ring is compared with ``==``.
EVERY_RING = {
    "count": (toy_count_query, None),
    "sum": (lambda: toy_query(SumSpec("D")), None),
    "bool": (lambda: toy_query(CountSpec(ring=BoolRing())), None),
    "minplus": (lambda: toy_query(CountSpec(ring=MinPlusRing())), None),
    "covar": (toy_covar_continuous_query, None),
    "mixed": (toy_covar_categorical_query, None),
    "mi": (toy_mi_query, None),
    "decay": (toy_covar_continuous_query, EngineConfig(decay=DECAY)),
    "decay-sum": (lambda: toy_query(SumSpec("D")), EngineConfig(decay=DECAY)),
    "general": (
        lambda: toy_query(
            GeneralFloatCovarSpec(tuple(Feature.continuous(a) for a in "BCD"))
        ),
        None,
    ),
}

SLOT_STORE_RINGS = {"covar", "mixed", "mi", "decay"}


@pytest.mark.parametrize("name", sorted(EVERY_RING))
def test_every_ring_gets_one_program_per_relation_and_matches_naive(name):
    """One compiled program per relation for every ring; it runs columnar
    (from ``COLUMNAR_MIN_DELTA`` keys) only on slot stores, row mode
    otherwise, and the root equals naive re-evaluation after every delta
    of an insert/delete stream (insert-only for the semirings) whose
    batches fall on both sides of that constant."""
    make_query, config = EVERY_RING[name]
    query, order = make_query(), toy_variable_order()
    engine = create_engine(query, config=config, order=order)
    naive = NaiveEngine(query, order=order)
    database = toy_database()
    for each in (engine, naive):
        each.initialize(database)
    assert set(engine._fused_paths) == set(query.relation_names)
    columnar = name in SLOT_STORE_RINGS
    assert all(f.bulk is columnar for f in engine._fused_paths.values())
    shadow = database.copy()
    factories = toy_row_factories()
    inserts_only = not engine.plan.ring.has_negation
    large = 0
    for seed, size in enumerate([1, 3, 40, 2, 60, 1, 25, 4, 80, 1] * 2):
        relation = "RS"[seed % 2]
        delta = draw_delta(shadow, factories, relation, size, seed)
        if delta is not None and inserts_only:
            delta.data = {key: m for key, m in delta.data.items() if m > 0}
        if delta is None or not delta.data:
            continue
        large += len(delta.data) >= EngineStatistics.COLUMNAR_MIN_DELTA
        shadow.apply(relation, delta)
        engine.apply(relation, delta)
        naive.apply(relation, delta)
        assert engine.result() == naive.result(), (name, seed)
    # sqlite's joined rows folded in the ring: a reference that shares no
    # code with the engines (naive re-evaluation loads the same programs).
    assert engine.result() == SqlOracle(shadow).result(engine), name
    assert large >= 3
    assert engine.stats.fused_batches == (large if columnar else 0)
    assert engine.stats.probe_steps > 0


def test_a_path_without_bulk_lifts_runs_row_mode_at_every_size():
    """Without bulk metadata on a lift there is no columnar mode: the
    engine loads the database in row mode, applies 100-key deltas in row
    mode, and re-derives dropped views in row mode — and ends where the
    columnar engine ends."""
    with mock.patch.object(compiled, "bulk_liftable", lambda fn: False):
        engine, _ = small_retailer_engine()
    reference, _ = small_retailer_engine()
    assert not any(fpath.bulk for fpath in engine._fused_paths.values())
    stream = inventory_stream(generate_retailer(CONFIG), batch_size=100, seed=9)
    for _ in range(3):
        name, delta = stream.next_batch()
        engine.apply(name, delta)
        reference.apply(name, delta)
    assert engine.stats.fused_batches == 0 and engine.stats.probe_steps > 0
    assert reference.stats.fused_batches == 3
    assert engine.result().close_to(reference.result(), 1e-9)
    for name in engine.tree.views:
        assert engine.view(name).close_to(reference.view(name), 1e-9), name
