"""A reference for every engine that shares no code with them: sqlite.

:class:`SqlOracle` mirrors a database — and then its deltas — in an
in-memory sqlite database (the standard library's ``sqlite3``): one
table per relation, holding the relation's attributes plus a
multiplicity column. The query is the natural join of those tables, and
a joined row weighs the product of its tables' multiplicities. From that
the oracle answers the spec's aggregates in SQL alone:

- :meth:`SqlOracle.count` / :meth:`SqlOracle.sum` — ``SUM(w)`` and
  ``SUM(w * X)``, grouped by the free variables;
- :meth:`SqlOracle.covar` — the COVAR count, sums and pairwise moments:
  ``SUM`` over continuous features, ``GROUP BY`` over categorical ones
  (their one-hot columns), so MI's counts are ``GROUP BY`` counts over
  the binned attributes (the binning is registered with sqlite);
- :meth:`SqlOracle.view` — any view of a view tree over any ring,
  including those SQL cannot aggregate (the semirings, the reference
  rings in ``tests/rings``): the view's joined rows come from SQL and
  are folded in the ring — lift, scale by the weight, group-sum by the
  view's key.

Exact rings compare with ``==``; float COVAR through :func:`covar_gap`
(the largest difference relative to the largest aggregate) against
:data:`COVAR_RTOL`. Decay is not modelled: a decayed reference mirrors
relations whose multiplicities already carry the weights.

``PYTHONPATH=src:. python -c 'from tests.sql_oracle import oracle_report
as f; print(f())'`` checks F-IVM against sqlite on the toy, retailer and
favorita scenarios after an insert/delete stream.
"""

from __future__ import annotations

import sqlite3
from typing import Any, Dict, Iterable, List, Mapping, Tuple

from repro.data import Relation
from repro.ml import covar_from_payload

__all__ = ["COVAR_RTOL", "SqlOracle", "covar_cells", "covar_gap", "oracle_report"]

#: Float aggregates must be within this relative gap of sqlite's
#: (:func:`covar_gap`): sqlite sums the joined rows one by one, the
#: engines sum factorized partial aggregates.
COVAR_RTOL = 1e-9


def _quoted(name: str) -> str:
    return '"' + name.replace('"', '""') + '"'


class SqlOracle:
    """A database mirrored in sqlite; ``relations`` is a
    :class:`~repro.data.Database` or an iterable / mapping of named
    relations whose payloads are multiplicities (ints, or weights)."""

    def __init__(self, relations):
        if isinstance(relations, Mapping):
            relations = relations.values()
        self.connection = sqlite3.connect(":memory:")
        self.schemas: Dict[str, Tuple[str, ...]] = {}
        self._bins: Dict[Any, str] = {}
        for relation in relations:
            self.schemas[relation.name] = tuple(relation.schema)
            # Untyped columns: sqlite keeps every value as Python gave it.
            columns = ", ".join(map(_quoted, relation.schema))
            self.connection.execute(
                f"CREATE TABLE {_quoted(relation.name)} ({columns}, "
                f"{self._weight(relation.name)}, PRIMARY KEY ({columns}))"
            )
            self.apply(relation.name, relation)

    @staticmethod
    def _weight(name: str) -> str:
        return _quoted("#" + name)  # one name per table: no join attribute

    def apply(self, name: str, delta: Relation) -> None:
        """Add ``delta``'s multiplicities into ``name``'s table."""
        schema = self.schemas[name]
        columns = ", ".join(map(_quoted, schema))
        weight = self._weight(name)
        self.connection.executemany(
            f"INSERT INTO {_quoted(name)} VALUES ({', '.join('?' * (len(schema) + 1))}) "
            f"ON CONFLICT ({columns}) DO UPDATE SET {weight} = {weight} + excluded.{weight}",
            [key + (m,) for key, m in delta.data.items()],
        )
        self.connection.execute(f"DELETE FROM {_quoted(name)} WHERE {weight} = 0")

    # ------------------------------------------------------------------
    # SQL aggregates
    # ------------------------------------------------------------------

    def _select(self, exprs: Iterable[str], group: Iterable[str] = (), relations=None):
        """Rows of ``SELECT group..., exprs... FROM <natural join>
        [GROUP BY group]`` over ``relations`` (default: all of them);
        ``{w}`` in an expression is the joined row's weight."""
        names = sorted(self.schemas if relations is None else relations)
        weight = "(" + " * ".join(map(self._weight, names)) + ")"
        group = list(group)
        select = ", ".join(group + [expr.replace("{w}", weight) for expr in exprs])
        sql = f"SELECT {select} FROM {' NATURAL JOIN '.join(map(_quoted, names))}"
        if group:
            sql += f" GROUP BY {', '.join(group)}"
        return self.connection.execute(sql).fetchall()

    def _grouped(self, expr: str, free: Tuple[str, ...]) -> Dict[Tuple, Any]:
        """``free key -> SUM(expr)``, zero groups left out."""
        k = len(free)
        rows = self._select([f"SUM({expr})"], map(_quoted, free))
        return {tuple(row[:k]): row[k] for row in rows if row[k]}

    def count(self, free: Tuple[str, ...] = ()) -> Dict[Tuple, Any]:
        """``SELECT free, SUM(w) ... GROUP BY free``."""
        return self._grouped("{w}", free)

    def sum(self, attribute: str, free: Tuple[str, ...] = ()) -> Dict[Tuple, Any]:
        """``SELECT free, SUM(w * attribute) ... GROUP BY free``."""
        return self._grouped(f"{{w}} * {_quoted(attribute)}", free)

    def _value(self, feature) -> str:
        """A feature's value in SQL: the attribute, or its bin."""
        if feature.binning is None:
            return _quoted(feature.name)
        function = self._bins.get(feature.binning)
        if function is None:
            function = self._bins[feature.binning] = f"bin{len(self._bins)}"
            self.connection.create_function(
                function, 1, feature.binning.bin, deterministic=True
            )
        return f"{function}({_quoted(feature.name)})"

    def covar(self, features) -> Dict[Tuple, Any]:
        """The COVAR aggregates over the join, keyed as :func:`covar_cells`
        keys a :class:`~repro.ml.CovarMatrix`. The ungrouped sums run as
        one ``SELECT``, each categorical feature and pair as a ``GROUP BY``."""
        cells: Dict[Tuple, Any] = {}
        plain: List[Tuple[Tuple, str]] = [(("c",), "SUM({w})")]

        def put(key, value):
            if value:
                cells[key] = value

        values = [self._value(feature) for feature in features]
        for i, (f, x) in enumerate(zip(features, values)):
            if f.is_categorical:
                for category, total in self._select(["SUM({w})"], [x]):
                    column = (f.name, category)
                    put(("s", column), total)
                    put(("q", frozenset({column})), total)  # one-hot: x * x = x
            else:
                column = (f.name, None)
                plain.append((("s", column), f"SUM({{w}} * {x})"))
                plain.append((("q", frozenset({column})), f"SUM({{w}} * {x} * {x})"))
            for g, y in zip(features[i + 1 :], values[i + 1 :]):
                if f.is_categorical and g.is_categorical:
                    for a, b, total in self._select(["SUM({w})"], [x, y]):
                        put(("q", frozenset({(f.name, a), (g.name, b)})), total)
                elif f.is_categorical or g.is_categorical:
                    (cat, cat_x), (num, num_x) = (
                        ((f, x), (g, y)) if f.is_categorical else ((g, y), (f, x))
                    )
                    for category, total in self._select([f"SUM({{w}} * {num_x})"], [cat_x]):
                        put(("q", frozenset({(cat.name, category), (num.name, None)})), total)
                else:
                    key = ("q", frozenset({(f.name, None), (g.name, None)}))
                    plain.append((key, f"SUM({{w}} * {x} * {y})"))
        row = self._select([expr for _key, expr in plain])[0]
        for (key, _expr), total in zip(plain, row):
            put(key, total)
        return cells

    # ------------------------------------------------------------------
    # Any ring: fold the joined rows
    # ------------------------------------------------------------------

    def rows(self, attrs: Iterable[str], relations=None) -> List[Tuple]:
        """``(*values, weight)`` per distinct ``attrs`` value of the natural
        join of ``relations`` (default: all of them), its weight summed."""
        return self._select(["SUM({w})"], map(_quoted, attrs), relations)

    def view(self, tree, name: str) -> Relation:
        """View ``name`` of ``tree`` over ``tree.plan``'s ring: the joined
        rows of the relations under it, their weights summed per value of
        the view's key and of the attributes its subtree lifts; each such
        row contributes the product of those lifts scaled by its weight,
        group-summed by the view's key."""
        view = tree.views[name]
        plan = tree.plan
        ring = plan.ring
        relations, lifted, stack = set(), [], [view]
        while stack:
            node = stack.pop()
            if node.relation is not None:
                relations.add(node.relation)
            lifted.extend(node.lifted)
            stack.extend(node.children)
        # The other attributes only sum weights: SQL groups them away.
        attrs = sorted(set(view.key) | set(lifted))
        at = {attr: i for i, attr in enumerate(attrs)}
        lifts = [(at[attr], plan.lifts[attr]) for attr in sorted(lifted)]
        key_at = [at[attr] for attr in view.key]
        result = Relation(view.key, ring, name=name)
        data = result.data
        for *values, weight in self.rows(attrs, relations):
            if not weight:
                continue  # an empty join still sums to one NULL row
            payload = ring.one()
            for i, lift in lifts:
                payload = ring.mul(payload, lift(values[i]))
            payload = ring.scale(payload, weight)
            key = tuple(values[i] for i in key_at)
            existing = data.get(key)
            data[key] = payload if existing is None else ring.add(existing, payload)
        for key in [key for key, payload in data.items() if ring.is_zero(payload)]:
            del data[key]
        return result

    def views(self, tree) -> Dict[str, Relation]:
        """:meth:`view` of every view of ``tree``, children first."""
        return {view.name: self.view(tree, view.name) for view in tree.all_views()}

    def result(self, engine) -> Relation:
        """The root view of ``engine``'s tree (:meth:`view`)."""
        return self.view(engine.tree, engine.tree.root.name)


# ----------------------------------------------------------------------
# Comparisons
# ----------------------------------------------------------------------


def covar_cells(matrix) -> Dict[Tuple, float]:
    """A :class:`~repro.ml.CovarMatrix`'s non-zero aggregates: ``("c",)``
    the count, ``("s", column)`` a sum and ``("q", frozenset({a, b}))``
    a moment (one column on the diagonal), where a column is
    ``(attribute, category)`` — category ``None`` when continuous."""
    columns = [(column.attribute, column.category) for column in matrix.columns]
    cells = {("c",): matrix.count}
    for i, column in enumerate(columns):
        cells[("s", column)] = matrix.sums[i]
        for j in range(i, len(columns)):
            cells[("q", frozenset({column, columns[j]}))] = matrix.moments[i, j]
    return {key: float(value) for key, value in cells.items() if value}


def covar_gap(got: Mapping[Tuple, Any], want: Mapping[Tuple, Any]) -> float:
    """Largest ``|got - want|`` over every aggregate either side has,
    relative to the largest ``|want|`` (0.0 when both are empty)."""
    scale = max((abs(value) for value in want.values()), default=0.0)
    worst = max(
        (abs(got.get(key, 0.0) - want.get(key, 0.0)) for key in set(got) | set(want)),
        default=0.0,
    )
    if not worst:
        return 0.0
    return worst / scale if scale else float("inf")


def engine_covar_gap(engine, oracle: SqlOracle) -> float:
    """:func:`covar_gap` of ``engine``'s root COVAR (or MI) payload to
    sqlite's aggregates over the oracle's database."""
    plan = engine.plan
    payload = engine.result().payload(())
    return covar_gap(
        covar_cells(covar_from_payload(payload, plan)), oracle.covar(plan.features)
    )


# ----------------------------------------------------------------------
# The report
# ----------------------------------------------------------------------


def _scenarios():
    """``name -> (query, order, database, factories or None, kind)``."""
    from repro.datasets import (
        FavoritaConfig,
        RetailerConfig,
        continuous_covar_features,
        favorita_query,
        favorita_regression_features,
        favorita_row_factories,
        favorita_variable_order,
        generate_favorita,
        generate_retailer,
        mi_features,
        retailer_query,
        retailer_row_factories,
        retailer_variable_order,
        toy_count_query,
        toy_covar_categorical_query,
        toy_covar_continuous_query,
        toy_database,
        toy_mi_query,
        toy_query,
        toy_row_factories,
        toy_variable_order,
    )
    from repro.rings import CountSpec, CovarSpec, Feature, MISpec, SumSpec

    toy = toy_database()
    retailer_config = RetailerConfig(locations=4, dates=6, items=20, inventory_rows=300, seed=11)
    retailer = generate_retailer(retailer_config)
    favorita_config = FavoritaConfig(stores=4, dates=8, items=12, sales_rows=300, seed=3)
    favorita = generate_favorita(favorita_config)
    mixed = (
        Feature.categorical("subcategory"),
        Feature.continuous("prize"),
        Feature.continuous("inventoryunits"),
        Feature.categorical("rain"),
    )
    out = {}
    for name, query, kind in (
        ("toy_count", toy_count_query(), "count"),
        ("toy_sum", toy_query(SumSpec("D")), "sum"),
        ("toy_covar", toy_covar_continuous_query(), "covar"),
        ("toy_mixed", toy_covar_categorical_query(), "covar"),
        ("toy_mi", toy_mi_query(), "mi"),
    ):
        out[name] = (query, toy_variable_order(), toy, toy_row_factories(), kind)
    factories = retailer_row_factories(retailer_config, retailer)
    for name, spec, kind in (
        ("retailer_count", CountSpec(), "count"),
        ("retailer_sum", SumSpec("inventoryunits"), "sum"),
        ("retailer_covar", CovarSpec(continuous_covar_features(limit=8)), "covar"),
        ("retailer_mixed", CovarSpec(mixed), "covar"),
        ("retailer_mi", MISpec(mi_features(retailer, bins=4)[:8]), "mi"),
    ):
        out[name] = (retailer_query(spec), retailer_variable_order(), retailer, factories, kind)
    features, _label = favorita_regression_features()
    out["favorita_mixed"] = (
        favorita_query(CovarSpec(features)),
        favorita_variable_order(),
        favorita,
        favorita_row_factories(favorita_config, favorita),
        "covar",
    )
    return out


def oracle_report(batches: int = 6, batch_size: int = 20) -> Dict[str, Any]:
    """F-IVM against sqlite on every scenario of :func:`_scenarios`, after
    initialization and an insert/delete stream: the scenarios checked,
    whether every count / sum root equalled sqlite's exactly, and the
    largest relative gap of a COVAR and of an MI aggregate."""
    from repro.datasets import UpdateStream
    from repro.engine import FIVMEngine

    exact = True
    gaps = {"covar": 0.0, "mi": 0.0}
    names: List[str] = []
    for name, (query, order, database, factories, kind) in _scenarios().items():
        engine = FIVMEngine(query, order=order)
        engine.initialize(database)
        oracle = SqlOracle(database)
        stream = UpdateStream(
            database, factories, targets=tuple(sorted(factories)),
            batch_size=batch_size, insert_ratio=0.6, seed=len(names),
        )
        for relation, delta in stream.batches(batches):
            engine.apply(relation, delta)
            oracle.apply(relation, delta)
        root = dict(engine.result().data)
        if kind == "count":
            exact &= root == oracle.count(query.free)
        elif kind == "sum":
            exact &= root == oracle.sum(query.spec.attribute, query.free)
        else:
            gaps[kind] = max(gaps[kind], engine_covar_gap(engine, oracle))
        names.append(name)
    return {
        "scenarios": tuple(names),
        "count_sum_exact": exact,
        "covar_gap": gaps["covar"],
        "mi_gap": gaps["mi"],
    }
