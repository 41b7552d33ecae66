"""The four benchmark workloads, one module each.

Each module defines ``setup(seed) -> state``, ``run_round(state, index,
tracer=None) -> Round`` (operations and their timing only; checks are
deferred into ``Round.checks``), ``summarize(samples) -> metrics`` and
``teardown(state)``.
"""
