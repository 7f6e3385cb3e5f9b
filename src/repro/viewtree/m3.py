"""Rendering view trees as M3-style declarations (Figure 2d).

The original system compiles its views to DBToaster's M3 intermediate
language; our engine interprets the tree directly, but the Maintenance
Strategy tab's output is reproduced faithfully: one ``DECLARE MAP`` per
view with the ring type, key schema and defining ``AggSum`` expression.
"""

from __future__ import annotations

from typing import List

from repro.rings.cofactor import NumericCofactorRing
from repro.rings.cofactor_sparse import SparseCofactorRing
from repro.rings.scalar import FloatRing, IntegerRing
from repro.rings.specs import PayloadPlan
from repro.viewtree.builder import ViewTree
from repro.viewtree.node import View

__all__ = ["ring_type_name", "render_view_m3", "render_tree_m3"]


def ring_type_name(plan: PayloadPlan) -> str:
    """M3-ish type of the plan's payload ring."""
    ring = plan.ring
    if isinstance(ring, IntegerRing):
        return "long"
    if isinstance(ring, FloatRing):
        return "double"
    if isinstance(ring, NumericCofactorRing):
        return f"RingCofactor<double, {ring.degree}>"
    if isinstance(ring, SparseCofactorRing):
        return f"RingCofactor<RingRelation, {ring.degree}>"
    return ring.name


def _lift_term(plan: PayloadPlan, attr: str) -> str:
    if plan.layout is not None and attr in plan.layout:
        index = plan.layout.index(attr)
        return f"[lift<{index}>: {ring_type_name(plan)}]({attr})"
    return f"[lift: {ring_type_name(plan)}]({attr})"


def render_view_m3(tree: ViewTree, view: View) -> str:
    """One DECLARE MAP block in the style of the demo's Figure 2d."""
    plan = tree.plan
    keys = ", ".join(f"{attr}: key" for attr in view.key)
    header = f"DECLARE MAP {view.name.replace('@', '_')}({ring_type_name(plan)})[][{keys}] :="
    if view.is_leaf:
        schema = tree.query.schema_of(view.relation)
        body_terms = [f"{view.relation}[][{', '.join(schema.attributes)}]<Local>"]
        body_terms.extend(_lift_term(plan, attr) for attr in view.lifted)
    else:
        body_terms = [
            f"{child.name.replace('@', '_')}[][{', '.join(child.key)}]<Local>"
            for child in view.children
        ]
        body_terms.extend(_lift_term(plan, attr) for attr in view.lifted)
    body = " * ".join(body_terms) if body_terms else "1"
    if view.marginalized:
        agg_keys = ", ".join(view.key)
        return f"{header}\n  AggSum([{agg_keys}],\n    ({body})\n  );"
    return f"{header}\n  ({body});"


def render_tree_m3(tree: ViewTree) -> str:
    """All views of the tree, bottom-up, as M3 declarations."""
    blocks: List[str] = [render_view_m3(tree, view) for view in tree.all_views()]
    return "\n\n".join(blocks)
