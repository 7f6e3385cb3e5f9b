"""Bottom-up evaluation of a view tree over concrete relations.

Shared by: F-IVM's initialization on rings without fused paths (count,
sum; cofactor rings load the database up the fused paths instead), F-IVM's re-derivation of a view it does not store where
no fused path runs through it, the sharded engine's re-partitioning of
views above the shard variable, the naive re-evaluation baseline, and
the first-order baseline's delta queries (which evaluate the same tree
with one base relation replaced by a delta — correct because the join is
linear in each of its relations).

With ``install`` every evaluated view is recorded in its long-lived form
— F-IVM passes the function that wraps a view as an indexed relation or
a slot store with its probe keys registered — while parents still join
the plain relation, which is dropped once they are evaluated. With
``stored`` the recursion stops at views already held there: F-IVM
re-derives a view it dropped from whichever of its descendants it keeps.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Mapping, Optional

from repro.data.relation import Relation
from repro.errors import EngineError
from repro.viewtree.builder import ViewTree
from repro.viewtree.node import View

__all__ = ["evaluate_view", "evaluate_tree"]

Install = Callable[[Relation], Any]


def evaluate_view(
    tree: ViewTree,
    view: View,
    relations: Mapping[str, Relation],
    materialized: Optional[Dict[str, Any]] = None,
    install: Optional[Install] = None,
    stored: Optional[Mapping[str, Any]] = None,
) -> Relation:
    """Evaluate ``view`` recursively over the given base ``relations``.

    When ``materialized`` is provided, every evaluated view is recorded in
    it (used by F-IVM's initialization to materialize the whole tree) —
    as ``install(relation)`` when ``install`` is given. A view found in
    ``stored`` (relations or slot stores by view name) is not evaluated:
    a plain-relation copy of it is used, so ``relations`` only needs the
    base relations under views ``stored`` lacks.
    """
    if stored is not None:
        held = stored.get(view.name)
        if held is not None:
            return held.copy()
    plan = tree.plan
    if view.is_leaf:
        try:
            base = relations[view.relation]
        except KeyError:
            raise EngineError(f"missing base relation {view.relation!r}") from None
        lifts = {attr: plan.lifts[attr] for attr in view.lifted}
        result = base.lift(plan.ring, view.key, lifts)
    else:
        children = [
            evaluate_view(tree, child, relations, materialized, install, stored)
            for child in view.children
        ]
        # Join smallest-first keeps intermediates small on skewed data.
        children.sort(key=len)
        joined = children[0]
        for child in children[1:]:
            joined = joined.join(child)
        lifts = {attr: plan.lifts[attr] for attr in view.lifted}
        result = joined.marginalize(view.key, lifts)
    result.name = view.name
    if materialized is not None:
        materialized[view.name] = install(result) if install else result
    return result


def evaluate_tree(
    tree: ViewTree,
    relations: Mapping[str, Relation],
    materialized: Optional[Dict[str, Any]] = None,
    install: Optional[Install] = None,
) -> Relation:
    """Evaluate the whole tree; returns the root view's relation."""
    return evaluate_view(tree, tree.root, relations, materialized, install)
