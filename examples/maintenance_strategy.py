#!/usr/bin/env python3
"""The Maintenance Strategy tab (Figure 2d).

Shows the view trees F-IVM builds for the Retailer and Favorita queries
and the generated M3-style code for each view — including the
``V_ksn[locn, dateid]`` view the paper's screenshot highlights.

Run:  python examples/maintenance_strategy.py
"""

from repro.datasets import (
    favorita_query,
    favorita_variable_order,
    regression_features,
    retailer_query,
    retailer_variable_order,
)
from repro.rings import CountSpec, CovarSpec
from repro.viewtree import (
    build_view_tree,
    render_tree_dot,
    render_tree_m3,
    render_view_m3,
)


def main() -> None:
    print("=" * 72)
    print("Retailer: SUM over Inventory ⋈ Location ⋈ Census ⋈ Item ⋈ Weather")
    print("=" * 72)
    features, _label = regression_features()
    tree = build_view_tree(
        retailer_query(CovarSpec(features)), order=retailer_variable_order()
    )
    print("\nView tree (cf. Figure 2d):")
    print(tree.render())
    print("\nM3 code for V@ksn (the view shown in the paper):")
    print(render_view_m3(tree, tree.views["V@ksn"]))
    print("\nGraphviz rendering available via render_tree_dot(); first lines:")
    print("\n".join(render_tree_dot(tree).splitlines()[:6]))

    print()
    print("=" * 72)
    print("Favorita: SUM over Sales ⋈ Items ⋈ Stores ⋈ Transactions ⋈ Oil ⋈ Holiday")
    print("=" * 72)
    tree = build_view_tree(favorita_query(CountSpec()), order=favorita_variable_order())
    print("\nView tree:")
    print(tree.render())
    print("\nFull M3 program:")
    print(render_tree_m3(tree))


if __name__ == "__main__":
    main()
