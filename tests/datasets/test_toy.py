"""The Figure-1 toy dataset."""

from repro.datasets import (
    toy_count_query,
    toy_covar_categorical_query,
    toy_covar_continuous_query,
    toy_database,
    toy_mi_query,
    toy_variable_order,
)


class TestToyDatabase:
    def test_contents_match_figure(self):
        db = toy_database()
        assert db.relation("R").data == {("a1", 1): 1, ("a2", 2): 1}
        assert db.relation("S").data == {
            ("a1", 1, 1): 1,
            ("a1", 2, 3): 1,
            ("a2", 2, 2): 1,
        }

    def test_fresh_copy_each_call(self):
        db1 = toy_database()
        db1.relation("R").data.clear()
        assert len(toy_database().relation("R").data) == 2

    def test_join_size_is_3(self):
        db = toy_database()
        assert db.relation("R").join(db.relation("S")).total() == 3


class TestToyQueries:
    def test_order_valid_for_all_scenarios(self):
        order = toy_variable_order()
        for query in (
            toy_count_query(),
            toy_covar_continuous_query(),
            toy_covar_categorical_query(),
            toy_mi_query(),
        ):
            order.validate(query)

    def test_spec_kinds(self):
        assert toy_count_query().build_plan().ring.name == "Z"
        assert toy_covar_continuous_query().build_plan().ring.degree == 3
        assert toy_mi_query().build_plan().ring.name == "SparseCofactor<3>"
