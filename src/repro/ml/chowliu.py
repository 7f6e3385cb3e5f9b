"""Chow-Liu trees: optimal tree-shaped Bayesian networks.

The Chow-Liu algorithm (ref [1]) builds the maximum-weight spanning tree
of the complete graph whose edge weights are pairwise mutual information;
the result maximizes total likelihood among all tree-shaped models. The
demo rebuilds the tree from the maintained MI matrix after every bulk.

Prim's algorithm with deterministic tie-breaking (larger MI first, then
lexicographic endpoints) keeps the output stable across runs, which the
update-stream tests rely on.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.errors import FIVMError
from repro.ml.mi import MIMatrix

__all__ = ["ChowLiuTree", "chow_liu_tree"]


@dataclass
class ChowLiuTree:
    """A rooted spanning tree over attributes with MI edge weights."""

    root: str
    edges: Tuple[Tuple[str, str, float], ...]
    parent: Dict[str, Optional[str]] = field(default_factory=dict)

    @property
    def total_weight(self) -> float:
        return sum(weight for _u, _v, weight in self.edges)

    def children(self, attr: str) -> Tuple[str, ...]:
        return tuple(
            child
            for child, parent in self.parent.items()
            if parent == attr
        )

    def render(self) -> str:
        """ASCII tree rooted at :attr:`root` (the Chow-Liu tab's drawing)."""
        weights = {(u, v): w for u, v, w in self.edges}
        weights.update({(v, u): w for u, v, w in self.edges})
        lines: List[str] = []

        def visit(node: str, depth: int) -> None:
            if depth == 0:
                lines.append(node)
            else:
                weight = weights[(self.parent[node], node)]
                lines.append("  " * depth + f"└─ {node} (MI={weight:.3f})")
            for child in sorted(self.children(node)):
                visit(child, depth + 1)

        visit(self.root, 0)
        return "\n".join(lines)


def chow_liu_tree(mi: MIMatrix, root: Optional[str] = None) -> ChowLiuTree:
    """Maximum-MI spanning tree via Prim's algorithm."""
    attributes = list(mi.attributes)
    if not attributes:
        raise FIVMError("cannot build a Chow-Liu tree over zero attributes")
    if root is None:
        root = attributes[0]
    elif root not in attributes:
        raise FIVMError(f"root {root!r} is not an attribute of the MI matrix")
    index = {attr: i for i, attr in enumerate(attributes)}
    values = mi.values.tolist()
    in_tree = {root}
    parent: Dict[str, Optional[str]] = {root: None}
    edges: List[Tuple[str, str, float]] = []
    while len(in_tree) < len(attributes):
        best: Optional[Tuple[float, str, str]] = None
        for u in sorted(in_tree):
            row = values[index[u]]
            for v in attributes:
                if v in in_tree:
                    continue
                weight = row[index[v]]
                if best is None or weight > best[0] or (weight == best[0] and (u, v) < best[1:]):
                    best = (weight, u, v)
        weight, u, v = best
        in_tree.add(v)
        parent[v] = u
        edges.append((u, v, weight))
    return ChowLiuTree(root=root, edges=tuple(edges), parent=parent)
