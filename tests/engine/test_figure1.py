"""Exact reproduction of the paper's Figure 1 (all four payload columns).

Toy database: R = {(a1,b1), (a2,b2)}, S = {(a1,c1,d1), (a1,c2,d3),
(a2,c2,d2)} with b_i = c_i = d_i = i. Every number asserted below is taken
from the figure.
"""

import numpy as np

from repro.data import deletes, inserts
from repro.datasets import (
    toy_count_query,
    toy_covar_categorical_query,
    toy_covar_continuous_query,
    toy_database,
    toy_mi_query,
    toy_variable_order,
)
from repro.engine import FIVMEngine


def engine_for(query):
    engine = FIVMEngine(query, order=toy_variable_order())
    engine.initialize(toy_database())
    return engine


class TestCountScenario:
    """Payload column '#': the Z ring."""

    def test_result_is_3(self):
        engine = engine_for(toy_count_query())
        assert engine.result().payload(()) == 3

    def test_vr_partial_counts(self):
        engine = engine_for(toy_count_query())
        vr = engine.view("V_R")
        assert vr.payload(("a1",)) == 1
        assert vr.payload(("a2",)) == 1

    def test_vs_partial_counts(self):
        engine = engine_for(toy_count_query())
        vs = engine.view("V_S")
        assert vs.payload(("a1",)) == 2
        assert vs.payload(("a2",)) == 1


class TestCovarContinuousScenario:
    """Payload column 'COVAR (cont. B, C, D)': the degree-3 matrix ring."""

    def test_root_payload_matches_figure(self):
        engine = engine_for(toy_covar_continuous_query())
        payload = engine.result().payload(())
        assert payload.c == 3.0
        assert payload.s.tolist() == [4.0, 5.0, 6.0]
        expected_q = np.array(
            [
                [6.0, 7.0, 8.0],
                [7.0, 9.0, 11.0],
                [8.0, 11.0, 14.0],
            ]
        )
        assert np.array_equal(payload.q, expected_q)

    def test_vr_payloads_are_lifted_b_values(self):
        engine = engine_for(toy_covar_continuous_query())
        vr = engine.view("V_R")
        dense = engine.plan.ring.dense
        # VR(a1) = g_B(b1): count 1, s_B = 1, Q_BB = 1 — stored over B alone
        assert vr.payload(("a1",)).support == (0,)
        a1 = dense(vr.payload(("a1",)))
        assert a1.c == 1.0
        assert a1.s.tolist() == [1.0, 0.0, 0.0]
        assert a1.q[0, 0] == 1.0
        a2 = dense(vr.payload(("a2",)))
        assert a2.s.tolist() == [2.0, 0.0, 0.0]
        assert a2.q[0, 0] == 4.0

    def test_vs_a1_is_sum_of_products(self):
        engine = engine_for(toy_covar_continuous_query())
        a1 = engine.view("V_S").payload(("a1",))
        # VS(a1) = g_C(1)*g_D(1) + g_C(2)*g_D(3) — stored over C, D
        assert a1.support == (1, 2)
        a1 = engine.plan.ring.dense(a1)
        assert a1.c == 2.0
        assert a1.s.tolist() == [0.0, 3.0, 4.0]
        assert a1.q[1, 1] == 5.0   # 1 + 4
        assert a1.q[2, 2] == 10.0  # 1 + 9
        assert a1.q[1, 2] == 7.0   # 1*1 + 2*3


class TestCovarCategoricalScenario:
    """Payload column 'COVAR (cat. C, cont. B, D)': relational values."""

    def test_root_payload_matches_figure(self):
        engine = engine_for(toy_covar_categorical_query())
        ring = engine.plan.ring
        payload = engine.result().payload(())
        assert payload.c == 3
        # s: SUM(B)=4, SUM(1) GROUP BY C = {c1->1, c2->2}, SUM(D)=6
        assert ring.linear(payload, 0).annotation(()) == 4.0
        assert ring.linear(payload, 1).as_dict() == {(1,): 1, (2,): 2}
        assert ring.linear(payload, 2).annotation(()) == 6.0
        # Q entries from the figure
        assert ring.entry(payload, 0, 0).annotation(()) == 6.0  # SUM(B*B)
        assert ring.entry(payload, 0, 1).as_dict() == {(1,): 1.0, (2,): 3.0}
        assert ring.entry(payload, 0, 2).annotation(()) == 8.0  # SUM(B*D)
        assert ring.entry(payload, 1, 1).as_dict() == {(1,): 1, (2,): 2}
        assert ring.entry(payload, 1, 2).as_dict() == {(1,): 1.0, (2,): 5.0}
        assert ring.entry(payload, 2, 2).annotation(()) == 14.0  # SUM(D*D)


class TestMIScenario:
    """Payload column 'MI (cat. B, C, D)': all-categorical counts."""

    def test_root_payload_matches_figure(self):
        engine = engine_for(toy_mi_query())
        ring = engine.plan.ring
        payload = engine.result().payload(())
        assert payload.c == 3
        assert ring.linear(payload, 0).as_dict() == {(1,): 2, (2,): 1}
        assert ring.linear(payload, 1).as_dict() == {(1,): 1, (2,): 2}
        assert ring.linear(payload, 2).as_dict() == {(1,): 1, (2,): 1, (3,): 1}
        assert ring.entry(payload, 0, 1).as_dict() == {
            (1, 1): 1,
            (1, 2): 1,
            (2, 2): 1,
        }
        assert ring.entry(payload, 0, 2).as_dict() == {
            (1, 1): 1,
            (1, 3): 1,
            (2, 2): 1,
        }
        assert ring.entry(payload, 1, 2).as_dict() == {
            (1, 1): 1,
            (2, 3): 1,
            (2, 2): 1,
        }


class TestDeltaPropagation:
    """The figure's right-hand side: maintenance under δR and δS."""

    def test_insert_into_r_count(self):
        engine = engine_for(toy_count_query())
        engine.apply("R", inserts(("A", "B"), [("a1", 1)]))
        # R(a1,b1) now has multiplicity 2: join = 2*2 + 1 = 5
        assert engine.result().payload(()) == 5

    def test_insert_new_key_without_partner_changes_nothing(self):
        engine = engine_for(toy_count_query())
        engine.apply("R", inserts(("A", "B"), [("a3", 7)]))
        assert engine.result().payload(()) == 3
        # ... but the leaf view did record it
        assert engine.view("V_R").payload(("a3",)) == 1

    def test_delete_from_s_count(self):
        engine = engine_for(toy_count_query())
        engine.apply("S", deletes(("A", "C", "D"), [("a2", 2, 2)]))
        assert engine.result().payload(()) == 2

    def test_insert_then_delete_roundtrip_covar(self):
        engine = engine_for(toy_covar_continuous_query())
        before = engine.plan.ring.copy(engine.result().payload(()))
        delta_rows = [("a1", 5), ("a2", 7)]
        engine.apply("R", inserts(("A", "B"), delta_rows))
        engine.apply("R", deletes(("A", "B"), delta_rows))
        after = engine.result().payload(())
        assert engine.plan.ring.close(before, after)

    def test_delete_to_empty_join(self):
        engine = engine_for(toy_count_query())
        engine.apply("R", deletes(("A", "B"), [("a1", 1), ("a2", 2)]))
        result = engine.result()
        assert result.payload(()) == 0
        assert len(result) == 0  # zero payloads are pruned

    def test_covar_insert_updates_all_aggregates(self):
        engine = engine_for(toy_covar_continuous_query())
        engine.apply("S", inserts(("A", "C", "D"), [("a2", 1, 4)]))
        payload = engine.result().payload(())
        # new join row: (b2, c1, d4) = (2, 1, 4)
        assert payload.c == 4.0
        assert payload.s.tolist() == [6.0, 6.0, 10.0]
        assert payload.q[0, 2] == 16.0  # 8 + 2*4

    def test_mixed_batch_single_delta(self):
        engine = engine_for(toy_count_query())
        from repro.data import delta_of

        delta = delta_of(
            ("A", "C", "D"),
            inserted=[("a1", 9, 9)],
            deleted=[("a1", 2, 3)],
        )
        engine.apply("S", delta)
        # a1 group: S rows (c1,d1) and (9,9) -> 2 rows * R count 1 + a2: 1
        assert engine.result().payload(()) == 3
