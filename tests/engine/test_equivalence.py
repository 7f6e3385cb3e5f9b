"""The master invariant: all engines compute the same result.

Random databases and random insert/delete sequences; F-IVM, first-order
IVM and naive re-evaluation must agree with each other and with the
query run in sqlite over the final database (``tests/sql_oracle.py``) —
for the count ring exactly and for the COVAR ring up to float
tolerance. This is the paper's implicit correctness claim: the
maintenance strategy never changes the query semantics, only the cost.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data import Database, Relation, RelationSchema
from repro.engine import FIVMEngine, FirstOrderEngine, NaiveEngine
from repro.query import Query, plan_variable_order
from repro.rings import CountSpec, CovarSpec, Feature

from tests.sql_oracle import COVAR_RTOL, SqlOracle, engine_covar_gap

R = RelationSchema("R", ("A", "B"))
S = RelationSchema("S", ("A", "C", "D"))
T = RelationSchema("T", ("C", "E"))

DOMAIN = 3


def rows(arity, max_rows=6):
    row = st.tuples(*[st.integers(0, DOMAIN - 1)] * arity)
    return st.lists(row, max_size=max_rows)


def database(r_rows, s_rows, t_rows):
    return Database(
        [
            Relation.from_tuples(R.attributes, r_rows, name="R"),
            Relation.from_tuples(S.attributes, s_rows, name="S"),
            Relation.from_tuples(T.attributes, t_rows, name="T"),
        ]
    )


# One update: (relation, rows, insert?) — deletes target rows that may or
# may not exist, so the generator re-checks liveness before deleting.
updates_strategy = st.lists(
    st.tuples(
        st.sampled_from(["R", "S", "T"]),
        st.integers(0, 5),  # row template index
        st.booleans(),
    ),
    max_size=10,
)

ROW_TEMPLATES = {
    "R": [(i % DOMAIN, (i + 1) % DOMAIN) for i in range(6)],
    "S": [(i % DOMAIN, (i + 2) % DOMAIN, i % DOMAIN) for i in range(6)],
    "T": [((i + 1) % DOMAIN, i % DOMAIN) for i in range(6)],
}


def make_engines(query, order):
    return [
        FIVMEngine(query, order=order),
        FirstOrderEngine(query, order=order),
        NaiveEngine(query, order=order),
    ]


def run_scenario(query, db, update_list, tolerance=None):
    order = plan_variable_order(query)
    engines = make_engines(query, order)
    shadow = db.copy()
    oracle = SqlOracle(db)
    for engine in engines:
        engine.initialize(db)
    for name, template_index, is_insert in update_list:
        row = ROW_TEMPLATES[name][template_index]
        schema = shadow.relation(name).schema
        delta = Relation(schema, name=name)
        if is_insert:
            delta.data[row] = 1
        else:
            if shadow.relation(name).data.get(row, 0) <= 0:
                continue  # nothing to delete
            delta.data[row] = -1
        shadow.apply(name, delta)
        oracle.apply(name, delta)
        for engine in engines:
            engine.apply(name, delta)
    reference = engines[0].result()
    for engine in engines[1:]:
        if tolerance is None:
            assert reference == engine.result(), engine.strategy
        else:
            assert reference.close_to(engine.result(), tolerance), engine.strategy
    # sqlite over the final database state
    for engine in engines:
        if tolerance is None:
            assert engine.result().data == oracle.count(query.free), engine.strategy
        else:
            assert engine_covar_gap(engine, oracle) <= COVAR_RTOL, engine.strategy


@given(rows(2), rows(3), rows(2), updates_strategy)
def test_count_engines_agree(r_rows, s_rows, t_rows, update_list):
    query = Query("Q", (R, S, T), spec=CountSpec())
    run_scenario(query, database(r_rows, s_rows, t_rows), update_list)


@given(rows(2), rows(3), rows(2), updates_strategy)
def test_covar_engines_agree(r_rows, s_rows, t_rows, update_list):
    spec = CovarSpec(
        (Feature.continuous("B"), Feature.continuous("D"), Feature.continuous("E"))
    )
    query = Query("Q", (R, S, T), spec=spec)
    run_scenario(query, database(r_rows, s_rows, t_rows), update_list, tolerance=1e-7)


@given(rows(2), rows(3), rows(2), updates_strategy)
def test_categorical_covar_engines_agree(r_rows, s_rows, t_rows, update_list):
    spec = CovarSpec(
        (Feature.categorical("B"), Feature.continuous("D"), Feature.categorical("E"))
    )
    query = Query("Q", (R, S, T), spec=spec)
    run_scenario(query, database(r_rows, s_rows, t_rows), update_list, tolerance=1e-7)


@given(rows(2), rows(3), updates_strategy)
def test_group_by_query_engines_agree(r_rows, s_rows, update_list):
    """Free variables: result keyed by A."""
    query = Query("Q", (R, S), spec=CountSpec(), free=("A",))
    update_list = [u for u in update_list if u[0] != "T"]
    db = Database(
        [
            Relation.from_tuples(R.attributes, r_rows, name="R"),
            Relation.from_tuples(S.attributes, s_rows, name="S"),
        ]
    )
    order = plan_variable_order(query)
    engines = make_engines(query, order)
    shadow = db.copy()
    oracle = SqlOracle(db)
    for engine in engines:
        engine.initialize(db)
    for name, template_index, is_insert in update_list:
        row = ROW_TEMPLATES[name][template_index]
        delta = Relation(shadow.relation(name).schema, name=name)
        if is_insert:
            delta.data[row] = 1
        elif shadow.relation(name).data.get(row, 0) > 0:
            delta.data[row] = -1
        else:
            continue
        shadow.apply(name, delta)
        oracle.apply(name, delta)
        for engine in engines:
            engine.apply(name, delta)
    for engine in engines:
        assert engine.result().data == oracle.count(("A",)), engine.strategy


@settings(max_examples=10)
@given(rows(2, 8), rows(3, 8))
def test_cyclic_query_engines_agree(r_rows, s_rows):
    """Triangle query: views get larger keys but semantics must hold."""
    u = RelationSchema("U", ("B", "C"))
    query = Query(
        "Tri",
        (R, RelationSchema("S2", ("A", "C")), u),
        spec=CountSpec(),
    )
    db = Database(
        [
            Relation.from_tuples(("A", "B"), r_rows, name="R"),
            Relation.from_tuples(("A", "C"), [(a, c) for a, c, _ in s_rows], name="S2"),
            Relation.from_tuples(("B", "C"), [(b, c) for _, b, c in s_rows], name="U"),
        ]
    )
    order = plan_variable_order(query)
    engines = make_engines(query, order)
    for engine in engines:
        engine.initialize(db)
    delta = Relation(("A", "B"), name="R")
    delta.data[(0, 0)] = 1
    oracle = SqlOracle(db)
    oracle.apply("R", delta)
    for engine in engines:
        engine.apply("R", delta)
    for engine in engines:
        assert engine.result().data == oracle.count(), engine.strategy
