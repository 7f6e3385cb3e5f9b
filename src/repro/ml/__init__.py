"""Machine-learning applications over maintained aggregate matrices."""

from repro.ml.chowliu import ChowLiuTree, chow_liu_tree
from repro.ml.covar import Column, CovarMatrix, covar_from_payload
from repro.ml.discretize import (
    binned_feature,
    binning_for_attribute,
    binning_from_values,
)
from repro.ml.mi import MIMatrix, mutual_information_matrix
from repro.ml.model_selection import FeatureRanking, rank_features, select_features
from repro.ml.regression import RidgeModel, RidgeRegression

__all__ = [
    "Column",
    "CovarMatrix",
    "covar_from_payload",
    "RidgeModel",
    "RidgeRegression",
    "MIMatrix",
    "mutual_information_matrix",
    "FeatureRanking",
    "rank_features",
    "select_features",
    "ChowLiuTree",
    "chow_liu_tree",
    "binning_from_values",
    "binning_for_attribute",
    "binned_feature",
]
