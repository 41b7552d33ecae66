"""Causal estimation of page-quality effects on long-horizon revenue."""

from .deaverage import DeaverageDiagnostics, deaverage
from .linear import lasso_cv_path, lasso_fit, lasso_lambda_max, ols_fit
from .panel import (
    KEY_COLUMNS,
    TARGET_COLUMN,
    PanelDataset,
    read_panel_csv,
    split_train_test,
    write_panel_csv,
)
from .pipeline import (
    CrossfitResult,
    DmlConfig,
    DmlEstimate,
    DvwpxModel,
    crossfit_residualize,
    derive_region_weights,
    estimate_dvwpx,
    naive_ols,
)

__all__ = [
    "DeaverageDiagnostics",
    "deaverage",
    "lasso_cv_path",
    "lasso_fit",
    "lasso_lambda_max",
    "ols_fit",
    "KEY_COLUMNS",
    "TARGET_COLUMN",
    "PanelDataset",
    "read_panel_csv",
    "split_train_test",
    "write_panel_csv",
    "CrossfitResult",
    "DmlConfig",
    "DmlEstimate",
    "DvwpxModel",
    "crossfit_residualize",
    "derive_region_weights",
    "estimate_dvwpx",
    "naive_ols",
]
