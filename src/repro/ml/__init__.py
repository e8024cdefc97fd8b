"""From-scratch ML substrate: trees, forests, linear models, CV, importances.

A NumPy reimplementation of the scikit-learn pieces the paper depends on —
CART regression trees, Random Forests and Extremely Randomized Trees with
out-of-bag scoring, coordinate-descent Lasso/ElasticNet, k-fold
cross-validation, and grouped Mean-Decrease-in-Accuracy permutation
importance.
"""

from .tree import DecisionTreeRegressor, resolve_max_features
from .forest import ExtraTreesRegressor, RandomForestRegressor
from .linear import ElasticNet, Lasso
from .metrics import r2_score, recall_score
from .model_selection import KFold, cross_val_score
from .importance import GroupImportance, grouped_permutation_importance

__all__ = [
    "DecisionTreeRegressor",
    "resolve_max_features",
    "RandomForestRegressor",
    "ExtraTreesRegressor",
    "Lasso",
    "ElasticNet",
    "r2_score",
    "recall_score",
    "KFold",
    "cross_val_score",
    "GroupImportance",
    "grouped_permutation_importance",
]
