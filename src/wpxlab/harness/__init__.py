"""Experiment harness: the multi-arm comparison loop and the command-line
front end."""

from .experiment import default_experiment_config, run_experiment

__all__ = ["default_experiment_config", "run_experiment"]
