#!/usr/bin/env python3
"""Quickstart: the paper's Figure 1, end to end.

Maintains SUM(g_B(B) * g_C(C) * g_D(D)) over R(A,B) ⋈ S(A,C,D) under four
payload rings — counts, COVAR (continuous), COVAR (categorical C), MI —
and shows delta propagation under inserts and deletes. Every number printed
here appears in Figure 1 of the paper.

Run:  python examples/quickstart.py
"""

from repro import FIVMEngine, deletes, inserts
from repro.datasets import (
    toy_count_query,
    toy_covar_categorical_query,
    toy_covar_continuous_query,
    toy_database,
    toy_mi_query,
    toy_variable_order,
)


def banner(text: str) -> None:
    print()
    print("=" * 72)
    print(text)
    print("=" * 72)


def engine_for(query):
    engine = FIVMEngine(query, order=toy_variable_order())
    engine.initialize(toy_database())
    return engine


def main() -> None:
    db = toy_database()
    print("Toy database (Figure 1):")
    for relation in db:
        print(f"  {relation.name}{relation.schema}: {sorted(relation.data)}")

    # ------------------------------------------------------------------
    banner("Scenario 1 — count aggregate (Z ring)")
    engine = engine_for(toy_count_query())
    print("view tree:")
    print(engine.tree.render())
    print(f"\nQ = COUNT(R ⋈ S) = {engine.result().payload(())}")
    print(f"V_R partial counts: {dict(engine.view('V_R').data)}")
    print(f"V_S partial counts: {dict(engine.view('V_S').data)}")

    # ------------------------------------------------------------------
    banner("Scenario 2 — COVAR matrix, continuous B, C, D (degree-3 ring)")
    engine = engine_for(toy_covar_continuous_query())
    payload = engine.result().payload(())
    print(f"count c = {payload.c}")
    print(f"sums  s = {payload.s.tolist()}            (SUM(B), SUM(C), SUM(D))")
    print("quadratic Q (SUM(X*Y)):")
    for row in payload.q.tolist():
        print(f"   {row}")

    # ------------------------------------------------------------------
    banner("Scenario 3 — COVAR with categorical C (relational values)")
    engine = engine_for(toy_covar_categorical_query())
    ring = engine.plan.ring
    payload = engine.result().payload(())
    print(f"count        : {payload.c}")
    print(f"SUM(B)       : {ring.linear(payload, 0).annotation(())}")
    print(f"SUM(1) by C  : {ring.linear(payload, 1).as_dict()}")
    print(f"SUM(B) by C  : {ring.entry(payload, 0, 1).as_dict()}   (Q_BC)")
    print(f"SUM(D) by C  : {ring.entry(payload, 1, 2).as_dict()}   (Q_CD)")
    print(f"SUM(B*D)     : {ring.entry(payload, 0, 2).annotation(())}")

    # ------------------------------------------------------------------
    banner("Scenario 4 — MI counts, categorical B, C, D")
    engine = engine_for(toy_mi_query())
    ring = engine.plan.ring
    payload = engine.result().payload(())
    print(f"C_0  = {payload.c}")
    print(f"C_B  = {ring.linear(payload, 0).as_dict()}")
    print(f"C_C  = {ring.linear(payload, 1).as_dict()}")
    print(f"C_D  = {ring.linear(payload, 2).as_dict()}")
    print(f"C_BC = {ring.entry(payload, 0, 1).as_dict()}")

    from repro import mutual_information_matrix

    mi = mutual_information_matrix(payload, engine.plan)
    print("\npairwise MI (nats):")
    print(mi.render())

    # ------------------------------------------------------------------
    banner("Incremental maintenance — δR and δS (inserts AND deletes)")
    engine = engine_for(toy_count_query())
    print(f"initial count: {engine.result().payload(())}")
    engine.apply("R", inserts(("A", "B"), [("a1", 1)]))
    print(f"after insert R(a1, b1): {engine.result().payload(())}")
    engine.apply("S", deletes(("A", "C", "D"), [("a2", 2, 2)]))
    print(f"after delete S(a2, c2, d2): {engine.result().payload(())}")
    engine.apply("R", deletes(("A", "B"), [("a1", 1), ("a1", 1)]))
    print(f"after deleting both R(a1, b1): {engine.result().payload(())}")


if __name__ == "__main__":
    main()
