"""Desk-scale laboratory for whole-page search experience optimization.

Four pieces that fit together: a synthetic marketplace with planted causal
structure, a pixel-and-region-weighted brand-match metric, a debiased
estimator of how page quality moves long-horizon revenue, and a
Thompson-sampling template ranker driven by those estimates.
"""

__version__ = "0.1.0"
