"""View-tree construction (the paper's τ mapping).

Given a query, a valid variable order and a payload plan, build the tree
of views: one leaf view per base relation (lift + aggregate its local
attributes), one inner view per variable (join children, marginalize the
variable through its lifting function). The root view is keyed by the free
variables and holds the query result.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.errors import QueryError
from repro.query.planner import plan_variable_order
from repro.query.query import Query
from repro.query.variable_order import VONode, VariableOrder
from repro.rings.specs import PayloadPlan
from repro.viewtree.node import View

__all__ = [
    "ViewTree",
    "build_view_tree",
    "ProbeStep",
    "ProbePlan",
    "build_probe_plan",
    "ShardPlan",
    "build_shard_plan",
]


@dataclass
class ViewTree:
    """The constructed tree plus the indexes engines need."""

    query: Query
    order: VariableOrder
    plan: PayloadPlan
    root: View
    views: Dict[str, View] = field(default_factory=dict)
    leaf_of: Dict[str, View] = field(default_factory=dict)
    parent: Dict[str, Optional[str]] = field(default_factory=dict)

    def path_to_root(self, relation_name: str) -> Tuple[View, ...]:
        """Views from the relation's leaf up to (and including) the root."""
        try:
            view = self.leaf_of[relation_name]
        except KeyError:
            raise QueryError(
                f"relation {relation_name!r} has no leaf view in this tree"
            ) from None
        path = [view]
        while True:
            parent_name = self.parent[path[-1].name]
            if parent_name is None:
                break
            path.append(self.views[parent_name])
        return tuple(path)

    def all_views(self) -> Tuple[View, ...]:
        """Views in bottom-up (children before parents) order."""
        ordered: List[View] = []

        def visit(view: View) -> None:
            for child in view.children:
                visit(child)
            ordered.append(view)

        visit(self.root)
        return tuple(ordered)

    def render(self) -> str:
        """ASCII tree, root at the top (cf. the Maintenance Strategy tab)."""
        lines: List[str] = []

        def visit(view: View, depth: int) -> None:
            lines.append("  " * depth + view.describe())
            for child in view.children:
                visit(child, depth + 1)

        visit(self.root, 0)
        return "\n".join(lines)


def build_view_tree(
    query: Query,
    order: Optional[VariableOrder] = None,
    plan: Optional[PayloadPlan] = None,
) -> ViewTree:
    """Construct the view tree for ``query`` along ``order``.

    ``order`` defaults to the greedy planner's choice; ``plan`` defaults to
    building the query's payload spec. The order is validated first.
    """
    if order is None:
        order = plan_variable_order(query)
    order.validate(query)
    if plan is None:
        plan = query.build_plan()
    variables = set(order.variables)
    free = set(query.free)
    for attr in free:
        if attr in plan.lifts:
            raise QueryError(
                f"free variable {attr!r} cannot be lifted: group-by attributes "
                "stay keys (group inside the ring instead, as the demo does)"
            )
    for attr in plan.lifts:
        if attr not in query.attributes:
            raise QueryError(f"lifted attribute {attr!r} not in query")

    def leaf_view(relation_name: str) -> View:
        schema = query.schema_of(relation_name)
        key = tuple(attr for attr in schema.attributes if attr in variables)
        local = tuple(attr for attr in schema.attributes if attr not in variables)
        lifted = tuple(attr for attr in local if attr in plan.lifts)
        return View(
            name=f"V_{relation_name}",
            key=key,
            relation=relation_name,
            lifted=lifted,
            marginalized=local,
        )

    def inner_view(node: VONode) -> View:
        children: List[View] = [leaf_view(name) for name in node.relations]
        children.extend(inner_view(child) for child in node.children)
        if not children:
            raise QueryError(
                f"variable {node.variable!r} has neither relations nor children"
            )
        variable = node.variable
        is_free = variable in free
        dep = order.dependency_set(query, variable)
        carried = tuple(
            v for v in order.free_below(query, variable) if v != variable
        )
        if is_free:
            key = dep + (variable,) + carried
            lifted: Tuple[str, ...] = ()
            marginalized: Tuple[str, ...] = ()
        else:
            key = dep + carried
            lifted = (variable,) if variable in plan.lifts else ()
            marginalized = (variable,)
        return View(
            name=f"V@{variable}",
            key=key,
            variable=variable,
            children=tuple(children),
            lifted=lifted,
            marginalized=marginalized,
            is_free=is_free,
        )

    top_views: List[View] = [inner_view(root) for root in order.roots]
    top_views.extend(leaf_view(name) for name in order.root_relations)
    if not top_views:
        raise QueryError(f"query {query.name!r} produced an empty view tree")
    if len(top_views) == 1 and top_views[0].key == tuple(query.free):
        root = top_views[0]
    else:
        # Virtual root: joins the forest's top views (cartesian across
        # disconnected components) and exposes exactly the free variables.
        root = View(
            name=f"V_{query.name}",
            key=tuple(query.free),
            children=tuple(top_views),
            marginalized=tuple(
                attr
                for view in top_views
                for attr in view.key
                if attr not in free
            ),
        )

    tree = ViewTree(query=query, order=order, plan=plan, root=root)

    def index(view: View, parent_name: Optional[str]) -> None:
        if view.name in tree.views:
            raise QueryError(f"duplicate view name {view.name!r}")
        tree.views[view.name] = view
        tree.parent[view.name] = parent_name
        if view.relation is not None:
            tree.leaf_of[view.relation] = view
        for child in view.children:
            index(child, view.name)

    index(root, None)
    missing = set(query.relation_names) - set(tree.leaf_of)
    if missing:
        raise QueryError(f"relations without leaf views: {sorted(missing)}")
    return tree


# ----------------------------------------------------------------------
# Probe plans: which sibling views each delta path probes on which keys.
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class ProbeStep:
    """One sibling probe along a maintenance path.

    ``attrs`` is the probe key — the sibling view's key attributes shared
    with the running delta at this point of the path, in the sibling-key
    order the persistent index is built on. An empty ``attrs`` is a
    cartesian sibling (everything matches)."""

    sibling: str
    attrs: Tuple[str, ...]


@dataclass(frozen=True)
class ProbePlan:
    """Static per-relation probe schedule plus the indexes it requires.

    ``path_steps[R][i]`` lists, for the i-th inner view on R's
    leaf-to-root path, the sibling probes in execution order;
    ``index_specs[view]`` is every attribute tuple that view must keep a
    persistent index on. The plan is a pure function of the view tree, so
    engines compute it once at construction and the index set never
    changes at runtime."""

    path_steps: Dict[str, Tuple[Tuple[ProbeStep, ...], ...]]
    index_specs: Dict[str, Tuple[Tuple[str, ...], ...]]


def build_probe_plan(tree: ViewTree) -> ProbePlan:
    """Compute the probe schedule for every base relation of ``tree``.

    Walks each leaf-to-root path tracking the attribute set of the running
    delta: lifted to the leaf key, widened by every sibling join, narrowed
    to the view key by each marginalization. Sibling order is the view's
    static child order — with index probes the running delta stays
    delta-sized, so the dynamic smallest-sibling-first heuristic of the
    scan path buys nothing.
    """
    path_steps: Dict[str, Tuple[Tuple[ProbeStep, ...], ...]] = {}
    index_specs: Dict[str, set] = {}
    for relation_name in tree.leaf_of:
        path = tree.path_to_root(relation_name)
        attrs_now = set(path[0].key)
        previous = path[0].name
        per_view: List[Tuple[ProbeStep, ...]] = []
        for view in path[1:]:
            steps: List[ProbeStep] = []
            for child in view.children:
                if child.name == previous:
                    continue
                shared = tuple(attr for attr in child.key if attr in attrs_now)
                steps.append(ProbeStep(sibling=child.name, attrs=shared))
                index_specs.setdefault(child.name, set()).add(shared)
                attrs_now |= set(child.key)
            per_view.append(tuple(steps))
            attrs_now = set(view.key)
            previous = view.name
        path_steps[relation_name] = tuple(per_view)
    return ProbePlan(
        path_steps=path_steps,
        index_specs={
            name: tuple(sorted(specs)) for name, specs in index_specs.items()
        },
    )


# ----------------------------------------------------------------------
# Shard plans: how to hash-partition the base relations across engines.
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class ShardPlan:
    """Static partitioning scheme for multi-core ingestion.

    ``attrs`` is the hash key; ``routed`` are the relations containing all
    of it (hash-partitioned on its values) and ``broadcast`` the rest
    (replicated to every shard). Correctness rests on the natural join
    equating ``attrs`` across every pair of routed relations — tuples in
    different shards then join to nothing, so per-shard results sum to
    the unsharded result (see :mod:`repro.data.sharding`). Like the probe
    plan, a shard plan is a pure function of the view tree, so the
    partitioning never changes at runtime and per-shard probe plans are
    simply the unsharded plan over smaller views.
    """

    attrs: Tuple[str, ...]
    routed: Tuple[str, ...]
    broadcast: Tuple[str, ...]


def build_shard_plan(tree: ViewTree) -> ShardPlan:
    """Choose the shard attribute for ``tree``'s query.

    Each variable of the order is considered as a singleton hash key and
    the one contained in the most relations wins — maximizing the share
    of the database (and of the update stream) that is partitioned
    instead of replicated. Ties break toward the root-most variable,
    whose views sit highest in the tree. A query whose relations share no
    attribute cannot be sharded and raises.
    """
    query = tree.query
    schemas = {
        name: set(query.schema_of(name).attributes)
        for name in query.relation_names
    }
    best = None
    for position, variable in enumerate(tree.order.variables):
        covered = sum(1 for name in schemas if variable in schemas[name])
        if covered < 1:
            continue
        # More covered relations first; root-most variable on ties
        # (pre-order position is the tie-break).
        rank = (-covered, position)
        if best is None or rank < best[0]:
            best = (rank, variable)
    if best is None:
        raise QueryError(f"query {query.name!r} has no shardable attribute")
    attrs = (best[1],)
    routed = tuple(name for name in query.relation_names if attrs[0] in schemas[name])
    broadcast = tuple(
        name for name in query.relation_names if name not in routed
    )
    return ShardPlan(attrs=attrs, routed=routed, broadcast=broadcast)
