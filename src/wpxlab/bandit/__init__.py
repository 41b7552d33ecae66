"""Thompson-sampling multi-objective template ranker."""

from .ranker import incremental_retrain, new_bundle, select_template

__all__ = ["new_bundle", "select_template", "incremental_retrain"]
