"""End-to-end command-line workflow: simulate, estimate, rank, experiment, report."""

import hashlib
import json
import math
import os
import re
import subprocess
import sys
import warnings
from dataclasses import fields, replace
from typing import get_args, get_origin, get_type_hints

import pytest

import wpxlab.harness.cli as cli
from wpxlab.dml.pipeline import DmlConfig
from wpxlab.errors import DomainError, InvariantViolation
from wpxlab.harness.experiment import (
    ArmConfig,
    ExperimentConfig,
    default_experiment_config,
    load_report,
    report_json,
)
from wpxlab.sim.world import WorldConfig

SIM_CONFIG = {
    "world": {"seed": 3},
    "n_events": 700,
    "policy": "randomized",
    "event_seed": 3,
}

# sha256 of estimate.json on `simulate --seed 0`'s panel, per stage-2 fit
ESTIMATE_DIGESTS = {
    "ols": "3d4d86d0d07cbc34d7babcb0c98109913a7d296dbf6bc3e56e255d0014f21e31",
    "lasso": "e374144dad6e902971566da77532e03dfb855a2173a55dc4ebb94eb65c2abce5",
}

SAT_WEIGHTS = {"revenue": 0.5, "non_abandonment": 0.2, "satisfaction": 0.3}

EXP_CONFIG = {
    "world": {"seed": 6},
    "arms": [
        {
            "name": "control",
            "satisfaction_mode": "none",
            "reward_weights": {"revenue": 0.5, "non_abandonment": 0.2},
        },
        {
            "name": "t1",
            "satisfaction_mode": "ctr",
            "reward_weights": {
                "revenue": 0.5,
                "non_abandonment": 0.2,
                "satisfaction": 0.3,
            },
        },
    ],
    "days": 2,
    "sessions_per_day": 25,
    "warmup_days": 1,
    "seed": 6,
    "bootstrap_n": 100,
}


def _write(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def _assert_error_names(capsys, field):
    err = capsys.readouterr().err
    assert err.startswith("error: ") and field in err and "Traceback" not in err


@pytest.fixture(scope="module")
def sim_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("sim")
    cfg = out / "sim.json"
    cfg.write_text(json.dumps(SIM_CONFIG))
    assert cli.main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
    return out


@pytest.fixture(scope="module")
def saved_report(tmp_path_factory):
    out = tmp_path_factory.mktemp("exp")
    cfg = out / "exp.json"
    cfg.write_text(json.dumps(EXP_CONFIG))
    assert cli.main(["experiment", "--config", str(cfg), "--out", str(out)]) == 0
    return json.loads((out / "report.json").read_text())


class TestSimulateAndEstimate:
    def test_simulate_writes_panel_and_world(self, sim_dir):
        assert (sim_dir / "panel.csv").exists()
        world_meta = json.loads((sim_dir / "world.json").read_text())
        assert world_meta["policy"] == "randomized"
        assert world_meta["n_events"] == 700

    def test_estimate_fits_on_simulated_panel(self, sim_dir, capsys):
        code = cli.main(["estimate", "--out", str(sim_dir)])
        assert code == 0
        out = capsys.readouterr().out
        assert "region weights" in out
        payload = json.loads((sim_dir / "estimate.json").read_text())
        assert set(payload["beta"]) == {"x_bmr_top", "x_bmr_mid", "x_bmr_bot"}
        assert len(payload["region_weights"]) == 3

    def test_default_panel_and_estimates_are_pinned(self, tmp_path, capsys):
        # sha256 of `simulate --seed 0`'s panel.csv and of estimate.json on it
        assert cli.main(["simulate", "--seed", "0", "--out", str(tmp_path)]) == 0
        panel = hashlib.sha256((tmp_path / "panel.csv").read_bytes()).hexdigest()
        assert panel == "5211c8a25266fb97941d364ab595603e8b566060ff28f347e14fadd5d651f492"
        for stage2, digest in ESTIMATE_DIGESTS.items():
            assert cli.main(["estimate", "--stage2", stage2, "--out", str(tmp_path)]) == 0
            estimate = (tmp_path / "estimate.json").read_bytes()
            assert hashlib.sha256(estimate).hexdigest() == digest, stage2

    def test_pinned_estimates_hold_on_one_blas_thread(self, tmp_path):
        # a BLAS dot of a long vector sums in a thread-count-dependent order
        assert cli.main(["simulate", "--seed", "0", "--out", str(tmp_path)]) == 0
        env = {**os.environ, "OPENBLAS_NUM_THREADS": "1"}
        for stage2, digest in ESTIMATE_DIGESTS.items():
            subprocess.run(
                [sys.executable, "-m", "wpxlab.harness.cli", "estimate", "--stage2", stage2,
                 "--out", str(tmp_path)],
                env=env, capture_output=True, check=True, timeout=300,
            )
            estimate = (tmp_path / "estimate.json").read_bytes()
            assert hashlib.sha256(estimate).hexdigest() == digest, stage2

    def test_lasso_estimate_has_no_standard_error(self, sim_dir, capsys):
        assert cli.main(["estimate", "--stage2", "lasso", "--out", str(sim_dir)]) == 0
        rows = [line.split() for line in capsys.readouterr().out.splitlines()]
        assert [row[2] for row in rows if row[0].startswith("x_")] == ["-", "-", "-"]
        payload = json.loads((sim_dir / "estimate.json").read_text())
        assert payload["stderr_beta"] is None
        assert set(payload["diagnostics"]["stage1_residual_variance"]) == set(payload["beta"])
        assert isinstance(payload["diagnostics"]["deaverage_converged"], bool)

    def test_estimate_on_tiny_panel_exits_two(self, tmp_path):
        cfg = _write(
            tmp_path, "sim.json", {**SIM_CONFIG, "n_events": 200, "event_seed": 4}
        )
        assert cli.main(["simulate", "--config", cfg, "--out", str(tmp_path)]) == 0
        assert cli.main(["estimate", "--out", str(tmp_path)]) == 2

    def test_missing_inputs_exit_one(self, tmp_path):
        assert cli.main(["estimate", "--config", "/nonexistent.json"]) == 1
        assert cli.main(["estimate", "--out", str(tmp_path)]) == 1
        assert cli.main(["simulate", "--config", str(tmp_path / "absent.json")]) == 1

    def test_bad_policy_exits_one(self, tmp_path):
        cfg = _write(tmp_path, "sim.json", {**SIM_CONFIG, "policy": "greedy"})
        assert cli.main(["simulate", "--config", cfg, "--out", str(tmp_path)]) == 1

    def test_no_seed_and_no_world_block_defaults_to_seed_zero(self, tmp_path):
        cfg = _write(tmp_path, "sim.json", {"n_events": 60})
        assert cli.main(["simulate", "--config", cfg, "--out", str(tmp_path / "a")]) == 0
        meta = json.loads((tmp_path / "a" / "world.json").read_text())
        assert (meta["world"]["seed"], meta["event_seed"]) == (0, 0)
        args = ["simulate", "--config", cfg, "--seed", "0", "--out", str(tmp_path / "b")]
        assert cli.main(args) == 0
        panels = [(tmp_path / d / "panel.csv").read_bytes() for d in ("a", "b")]
        assert panels[0] == panels[1]

    @pytest.mark.parametrize(
        "key, value",
        [("n_events", "many"), ("event_seed", "x"), ("policy", 1), ("n_event", 50)],
    )
    def test_wrong_typed_config_value_exits_one(self, tmp_path, capsys, key, value):
        cfg = _write(tmp_path, "sim.json", {**SIM_CONFIG, key: value})
        assert cli.main(["simulate", "--config", cfg, "--out", str(tmp_path)]) == 1
        _assert_error_names(capsys, key)

    @pytest.mark.parametrize(
        "world, field",
        [
            ({"n_customers": "many"}, "world.n_customers"),
            ({"n_shoppers": 5}, "n_shoppers"),
            ({"true_region_effects": [1.0, 0.6]}, "true_region_effects"),
            ({"fixed_effect_scales": [0.5]}, "fixed_effect_scales"),
            ({"history_effects": [0.1, "0.2", 0.3, 0.4]}, "world.history_effects[1]"),
            ({"noise_scale": 1e308}, "long_term_revenue"),
            ({"spend_sensitivity": 1e308}, "spend_sensitivity"),
            ({"history_effects": [1e308, 1e308, 1, 1]}, "history_effects"),
        ],
    )
    def test_malformed_world_exits_one_naming_the_field(self, tmp_path, capsys, world, field):
        cfg = _write(tmp_path, "sim.json", {**SIM_CONFIG, "world": world})
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # an overflow is named, not warned about
            assert cli.main(["simulate", "--config", cfg, "--out", str(tmp_path)]) == 1
        _assert_error_names(capsys, field)

    @pytest.mark.parametrize(
        "config, field",
        [
            ({"deaverage_iterations": "two"}, "config.deaverage_iterations"),
            ({"train_fraction": "0.5"}, "config.train_fraction"),
            ({"panel": 3}, "config.panel"),
            ({"seed": 4}, "seed"),
            ({"crossfit_fold": 3}, "crossfit_fold"),
        ],
    )
    def test_malformed_estimate_config_exits_one_naming_the_field(
        self, sim_dir, tmp_path, capsys, config, field
    ):
        cfg = _write(tmp_path, "est.json", {"panel": str(sim_dir / "panel.csv"), **config})
        assert cli.main(["estimate", "--config", cfg, "--out", str(tmp_path)]) == 1
        _assert_error_names(capsys, field)

    @pytest.mark.parametrize(
        "line, cells, where",
        [
            (701, lambda cells: cells[:-2], "line 701 has 12 cells"),
            (6, lambda cells: [*cells[:4], "abc", *cells[5:]], "line 6 column drev"),
            # a lone surrogate escape writes the raw byte 0xff
            (9, lambda cells: ["\udcff" + cells[0], *cells[1:]], "line 9 is not valid UTF-8"),
        ],
        ids=["short_row", "non_numeric_cell", "non_utf8_byte"],
    )
    def test_malformed_panel_exits_one_naming_file_and_line(
        self, sim_dir, tmp_path, capsys, line, cells, where
    ):
        lines = (sim_dir / "panel.csv").read_text().splitlines()
        lines[line - 1] = ",".join(cells(lines[line - 1].split(",")))
        panel = tmp_path / "bad.csv"
        panel.write_bytes(("\n".join(lines) + "\n").encode("utf-8", "surrogateescape"))
        cfg = _write(tmp_path, "est.json", {"panel": str(panel)})
        assert cli.main(["estimate", "--config", cfg, "--out", str(tmp_path)]) == 1
        _assert_error_names(capsys, f"bad.csv: {where}")

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_panel_value_exits_one_naming_the_block(
        self, sim_dir, tmp_path, capsys, value
    ):
        lines = (sim_dir / "panel.csv").read_text().splitlines()
        cells = lines[9].split(",")
        cells[5] = value  # x_bmr_top
        lines[9] = ",".join(cells)
        panel = tmp_path / "bad.csv"
        panel.write_text("\n".join(lines) + "\n")
        cfg = _write(tmp_path, "est.json", {"panel": str(panel)})
        assert cli.main(["estimate", "--config", cfg, "--out", str(tmp_path)]) == 1
        _assert_error_names(capsys, "non-finite values in block x")

    def test_estimate_exits_two_when_deaveraging_does_not_converge(self, tmp_path, capsys):
        sim = _write(tmp_path, "sim.json", {"world": {"seed": 0}, "n_events": 4000})
        assert cli.main(["simulate", "--config", sim, "--out", str(tmp_path)]) == 0
        capsys.readouterr()
        est = _write(tmp_path, "est.json", {"deaverage_iterations": 2})
        assert cli.main(["estimate", "--config", est, "--out", str(tmp_path)]) == 2
        assert "stage deaverage" in capsys.readouterr().err


class TestRank:
    def test_rank_by_query_index(self, tmp_path, capsys):
        cfg = _write(
            tmp_path,
            "ctx.json",
            {"world": {"seed": 3}, "query_index": 0, "warmup_sessions": 120},
        )
        code = cli.main(["rank", "--config", cfg, "--seed", "3", "--out", str(tmp_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "chosen template:" in out
        payload = json.loads((tmp_path / "rank.json").read_text())
        assert payload["chosen"] in {s["template_id"] for s in payload["scores"]}
        assert sum(s["chosen"] for s in payload["scores"]) == 1

    @pytest.mark.parametrize(
        "context, digest",
        [
            (
                {"query_index": 1, "device": "mobile"},
                "fd0ec09527a6e2aed5f26075a9a0fdc5bbc58d69b5ce3e053de203cd60cf83bb",
            ),
            (
                {"query_index": 2, "device": "desktop"},
                "7f4de706b4463c9a6b4cc879e4c724396efc084761ee43c9a57779d0aa9f97d7",
            ),
        ],
    )
    def test_rank_json_is_pinned_at_the_default_seed(self, tmp_path, capsys, context, digest):
        cfg = _write(tmp_path, "ctx.json", context)
        assert cli.main(["rank", "--config", cfg, "--out", str(tmp_path)]) == 0
        assert hashlib.sha256((tmp_path / "rank.json").read_bytes()).hexdigest() == digest

    def test_rank_with_explicit_context(self, tmp_path, capsys):
        cfg = _write(
            tmp_path,
            "ctx.json",
            {
                "world": {"seed": 3},
                "warmup_sessions": 80,
                "device": "mobile",
                "query_specificity": 0.7,
                "category_id": "cat0",
                "membership": 1,
                "content_signals": {
                    "organic_grid": [0.2, 0.1, 0.1, 0.6, 0.0, 0.0],
                    "brand_top": [0.8, 0.1, 0.0, 0.5, 0.7, 0.3],
                },
                "templates": ["organic_grid", "brand_top"],
            },
        )
        assert cli.main(["rank", "--config", cfg, "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "chosen template:" in out

    def test_rank_with_incomplete_context_exits_one(self, tmp_path):
        cfg = _write(
            tmp_path,
            "ctx.json",
            {"world": {"seed": 3}, "warmup_sessions": 50, "device": "mobile"},
        )
        assert cli.main(["rank", "--config", cfg, "--seed", "3"]) == 1

    @pytest.mark.parametrize(
        "arm, code, message",
        [
            ({"satisfaction_mode": "ctr", "reward_weights": SAT_WEIGHTS}, 0, ""),
            ({"satisfaction_mode": "bogus"}, 1, "satisfaction_mode must be one of"),
            ({"satisfaction_mode": "ctr"}, 1, "needs a nonzero satisfaction weight"),
            (
                {"satisfaction_mode": "dvwpx", "reward_weights": SAT_WEIGHTS},
                1,
                "run `experiment` for dvwpx arms",
            ),
        ],
    )
    def test_rank_validates_its_arm(self, tmp_path, capsys, arm, code, message):
        cfg = _write(
            tmp_path,
            "ctx.json",
            {"world": {"seed": 3}, "query_index": 0, "warmup_sessions": 30, "arm": arm},
        )
        assert cli.main(["rank", "--config", cfg, "--seed", "3"]) == code
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize(
        "key, value",
        [
            ("arm", 3),
            ("query_index", "one"),
            ("warmup_sessions", "ten"),
            ("membership", "yes"),
            ("query_index", 2.9),
            ("query_index", "2"),
            ("membership", True),
            ("device", "tablet"),
            ("templates", "brand_top"),
            ("warmup_session", 20),
            ("arm", {"satisfaction": 0.3}),
        ],
    )
    def test_wrong_typed_context_value_exits_one(self, tmp_path, capsys, key, value):
        context = {"world": {"seed": 3}, "query_index": 0, "warmup_sessions": 20}
        cfg = _write(tmp_path, "ctx.json", {**context, key: value})
        assert cli.main(["rank", "--config", cfg, "--seed", "3"]) == 1
        _assert_error_names(capsys, key)

    def test_wrong_typed_nested_values_exit_one(self, tmp_path, capsys):
        context = {"world": {"seed": 3}, "query_index": 0, "warmup_sessions": 20}
        cfg = _write(tmp_path, "ctx.json", {**context, "arm": {"reward_weights": 3}})
        assert cli.main(["rank", "--config", cfg, "--seed", "3"]) == 1
        assert "reward_weights" in capsys.readouterr().err
        explicit = {
            "world": {"seed": 3},
            "warmup_sessions": 20,
            "device": "mobile",
            "query_specificity": 0.5,
            "category_id": "cat0",
            "membership": 1,
            "content_signals": {"organic_grid": 3},
        }
        cfg = _write(tmp_path, "explicit.json", explicit)
        assert cli.main(["rank", "--config", cfg, "--seed", "3"]) == 1
        assert "organic_grid" in capsys.readouterr().err
        for key, value in [
            ("content_signals", {"organic_grid": "abcdef"}),
            ("query_specificity", None),
        ]:
            cfg = _write(tmp_path, "explicit.json", {**explicit, key: value})
            assert cli.main(["rank", "--config", cfg, "--seed", "3"]) == 1
            _assert_error_names(capsys, f"config.{key}")

    def test_rank_requires_config(self):
        assert cli.main(["rank"]) == 1

    def test_unknown_template_exits_one(self, tmp_path):
        cfg = _write(
            tmp_path,
            "ctx.json",
            {
                "world": {"seed": 3},
                "query_index": 0,
                "warmup_sessions": 50,
                "templates": ["bogus"],
            },
        )
        assert cli.main(["rank", "--config", cfg, "--seed", "3"]) == 1

    def test_repeated_templates_exit_one_naming_them(self, tmp_path, capsys):
        templates = ["brand_top", "brand_top", "organic_grid", "organic_grid", "brand_top"]
        cfg = _write(
            tmp_path,
            "ctx.json",
            {"world": {"seed": 3}, "query_index": 0, "warmup_sessions": 20, "templates": templates},
        )
        assert cli.main(["rank", "--config", cfg, "--seed", "3"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "repeated template ids: ['brand_top', 'organic_grid']" in captured.err

    def test_misspelt_objective_exits_one_before_the_warmup(self, tmp_path, capsys, monkeypatch):
        def warmup(*args):
            raise AssertionError("the warm-up ran")

        monkeypatch.setattr(cli, "_train_rank_bundle", warmup)
        arm = {"reward_weights": {"revenue": 0.5, "non_abandonmnt": 0.2}}
        cfg = _write(
            tmp_path, "ctx.json", {"world": {"seed": 3}, "query_index": 0, "arm": arm}
        )
        assert cli.main(["rank", "--config", cfg, "--seed", "3"]) == 1
        _assert_error_names(capsys, "unknown objectives ['non_abandonmnt']")


class TestExperimentAndReport:
    def test_experiment_writes_report_and_per_day(self, tmp_path, capsys):
        cfg = _write(tmp_path, "exp.json", EXP_CONFIG)
        code = cli.main(["experiment", "--config", cfg, "--out", str(tmp_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "arm means" in out
        assert (tmp_path / "report.json").exists()
        assert (tmp_path / "per_day.csv").exists()
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["kind"] == "experiment_report"
        assert {r["treatment"] for r in report["lifts"]} == {"t1"}

    def test_experiment_output_is_reproducible(self, tmp_path):
        cfg = _write(tmp_path, "exp.json", EXP_CONFIG)
        a = tmp_path / "a"
        b = tmp_path / "b"
        assert cli.main(["experiment", "--config", cfg, "--out", str(a)]) == 0
        assert cli.main(["experiment", "--config", cfg, "--out", str(b)]) == 0
        assert (a / "report.json").read_bytes() == (b / "report.json").read_bytes()
        assert (a / "per_day.csv").read_bytes() == (b / "per_day.csv").read_bytes()

    def test_arm_subset_and_day_override(self, tmp_path):
        cfg = _write(tmp_path, "exp.json", EXP_CONFIG)
        code = cli.main(
            [
                "experiment",
                "--config",
                cfg,
                "--arms",
                "control",
                "--days",
                "1",
                "--out",
                str(tmp_path),
            ]
        )
        assert code == 0
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["lifts"] == []
        assert list(report["region_weights"]) == ["control"]
        assert report["config"]["days"] == 1

    @pytest.mark.parametrize(
        "payload, field",
        [
            ({}, "world"),
            (
                {
                    **EXP_CONFIG,
                    "arms": [{"name": "control", "reward_weights": {"revenue": 1.0}}],
                },
                "satisfaction_mode",
            ),
            ({**EXP_CONFIG, "bootstrapn": 10}, "bootstrapn"),
            (
                {**EXP_CONFIG, "world": {"seed": 6, "n_items": 30.0}},
                "config.world.n_items",
            ),
            (
                {
                    **EXP_CONFIG,
                    "arms": [{**EXP_CONFIG["arms"][0], "reward_weights": {"revenue": "1"}}],
                },
                "config.arms[0].reward_weights.revenue",
            ),
            ({**EXP_CONFIG, "reestimate_ctr_weights": True}, "reestimate_ctr_weights"),
            ({**EXP_CONFIG, "horizon": {"delta_long_days": 84}}, "horizon"),
        ],
    )
    def test_malformed_config_exits_one_naming_the_field(
        self, tmp_path, capsys, payload, field
    ):
        cfg = _write(tmp_path, "exp.json", payload)
        assert cli.main(["experiment", "--config", cfg, "--out", str(tmp_path)]) == 1
        _assert_error_names(capsys, field)

    def test_misspelt_objective_exits_one_at_parse_time(self, tmp_path, capsys, monkeypatch):
        def run(config):
            raise AssertionError("the experiment ran")

        monkeypatch.setattr(cli, "run_experiment", run)
        arm = {**EXP_CONFIG["arms"][0], "reward_weights": {"revenue": 0.5, "non_abandonmnt": 0.2}}
        cfg = _write(tmp_path, "exp.json", {**EXP_CONFIG, "arms": [arm]})
        assert cli.main(["experiment", "--config", cfg, "--out", str(tmp_path)]) == 1
        _assert_error_names(capsys, "unknown objectives ['non_abandonmnt']")

    def test_unknown_arm_exits_one(self, tmp_path):
        cfg = _write(tmp_path, "exp.json", EXP_CONFIG)
        assert cli.main(["experiment", "--config", cfg, "--arms", "nope"]) == 1

    def test_report_rerenders_saved_report(self, tmp_path, capsys):
        cfg = _write(tmp_path, "exp.json", EXP_CONFIG)
        assert cli.main(["experiment", "--config", cfg, "--out", str(tmp_path)]) == 0
        capsys.readouterr()
        assert cli.main(["report", "--out", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "control" in out and "t1" in out

    def test_report_on_missing_or_malformed_file_exits_one(self, tmp_path):
        assert cli.main(["report", "--out", str(tmp_path)]) == 1
        bad = tmp_path / "report.json"
        bad.write_text(json.dumps({"kind": "experiment_report"}))
        assert cli.main(["report", "--config", str(bad)]) == 1

    @pytest.mark.parametrize(
        "key, value, field",
        [
            (None, [1, 2], "kind=None"),
            ("region_weights", [], "report.region_weights"),
            ("region_weights", {"t1": [0.5, 0.5]}, "report.region_weights.t1"),
            ("arm_means", {"a": 5}, "report.arm_means.a"),
            ("arm_means", {"a": {"revenue": "x"}}, "report.arm_means.a.revenue"),
            ("lifts", [{"lift": 0.1}], "report.lifts[0]"),
            ("schema_version", 99, "report.schema_version"),
            ("schema_version", 1, "report.schema_version"),
            ("schema_version", None, "report.schema_version"),
        ],
    )
    def test_malformed_report_exits_one_naming_the_field(
        self, saved_report, tmp_path, capsys, key, value, field
    ):
        # `key` None replaces the whole payload
        payload = value if key is None else {**saved_report, key: value}
        bad = _write(tmp_path, "report.json", payload)
        capsys.readouterr()
        assert cli.main(["report", "--config", bad]) == 1
        _assert_error_names(capsys, field)


NON_FINITE = {"nan": math.nan, "inf": math.inf, "-inf": -math.inf}


def _float_fields(cls):
    """``(name, entry)`` of every float field of the dataclass ``cls``: entry
    None for a float, the last index of the default for a tuple of floats."""
    hints = get_type_hints(cls)
    for f in fields(cls):
        if hints[f.name] is float:
            yield f.name, None
        elif get_origin(hints[f.name]) is tuple and float in get_args(hints[f.name]):
            yield f.name, len(f.default) - 1


def _poisoned(cls, name, entry, value):
    """``value`` for field ``name`` of a default ``cls``, at ``entry`` of a tuple."""
    if entry is None:
        return value
    default = list(getattr(cls(), name))
    default[entry] = value
    return default


def _non_finite_cases():
    """(command, config payload, dotted field path) for NaN and each infinity
    in every float of `WorldConfig`, `DmlConfig`, `ExperimentConfig` and the
    arm weights, so a float field added later is covered too."""
    arm = EXP_CONFIG["arms"][1]
    for label, value in NON_FINITE.items():
        for name, entry in _float_fields(WorldConfig):
            world = {"seed": 3, name: _poisoned(WorldConfig, name, entry, value)}
            path = f"config.world.{name}" + ("" if entry is None else f"[{entry}]")
            yield pytest.param("simulate", {**SIM_CONFIG, "world": world}, path, id=f"world.{name}-{label}")
        for name, entry in _float_fields(DmlConfig):
            yield pytest.param("estimate", {name: value}, f"config.{name}", id=f"dml.{name}-{label}")
        for name, _ in _float_fields(ExperimentConfig):
            payload = {**EXP_CONFIG, name: value}
            yield pytest.param("experiment", payload, f"config.{name}", id=f"experiment.{name}-{label}")
        for objective in arm["reward_weights"]:
            weights = {**arm["reward_weights"], objective: value}
            payload = {**EXP_CONFIG, "arms": [EXP_CONFIG["arms"][0], {**arm, "reward_weights": weights}]}
            path = f"config.arms[1].reward_weights.{objective}"
            yield pytest.param("experiment", payload, path, id=f"arm.{objective}-{label}")


def _library_cases():
    """(build, field name) for every float a config class checks itself:
    ``build(value)`` constructs the class with that field set to ``value``."""
    for cls in (WorldConfig, DmlConfig):
        for name, entry in _float_fields(cls):
            field = name + ("" if entry is None else f"[{entry}]")
            build = lambda v, c=cls, n=name, e=entry: c(**{n: _poisoned(c, n, e, v)})
            yield pytest.param(build, field, id=f"{cls.__name__}.{field}")
    for name, _ in _float_fields(ExperimentConfig):
        build = lambda v, n=name: replace(default_experiment_config(), **{n: v})
        yield pytest.param(build, name, id=f"ExperimentConfig.{name}")
    yield pytest.param(
        lambda v: ArmConfig("t1", "ctr", {**SAT_WEIGHTS, "satisfaction": v}),
        "reward_weights.satisfaction",
        id="ArmConfig.reward_weights",
    )


@pytest.mark.filterwarnings("error")
class TestNonFiniteNumbers:
    """NaN and the infinities stop at the config boundary: a config file, a
    saved report and a library caller's dataclass all name the field."""

    @pytest.mark.parametrize("command, payload, field", _non_finite_cases())
    def test_config_value_exits_one_naming_the_field(self, tmp_path, capsys, command, payload, field):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(payload))  # NaN and Infinity, as Python's json writes them
        out = tmp_path / "out"
        assert cli.main([command, "--config", str(cfg), "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {field} must be finite, got ")
        assert captured.err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("label", NON_FINITE)
    @pytest.mark.parametrize("build, field", _library_cases())
    def test_library_config_names_the_field(self, build, field, label):
        with pytest.raises(DomainError, match=f"^{re.escape(field)} must be finite"):
            build(NON_FINITE[label])

    @pytest.mark.parametrize("label", NON_FINITE)
    def test_saved_report_value_exits_one_naming_the_field(
        self, saved_report, tmp_path, capsys, label
    ):
        means = saved_report["arm_means"]
        payload = {**saved_report, "arm_means": {**means, "t1": {**means["t1"], "ctr": NON_FINITE[label]}}}
        bad = _write(tmp_path, "report.json", payload)
        assert cli.main(["report", "--config", bad]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: report.arm_means.t1.ctr must be finite")

    def test_report_with_a_non_finite_number_is_not_written(self, saved_report, tmp_path):
        path = tmp_path / "report.json"
        path.write_text(json.dumps(saved_report))
        report = load_report(path)
        report.arm_means["t1"]["ctr"] = math.nan
        with pytest.raises(InvariantViolation, match="non-finite"):
            report_json(report)

    def test_int_beyond_float_range_is_not_finite(self, tmp_path, capsys):
        cfg = tmp_path / "sim.json"
        cfg.write_text(json.dumps({**SIM_CONFIG, "world": {"noise_scale": 10**400}}))
        assert cli.main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 1
        _assert_error_names(capsys, "config.world.noise_scale must be finite")


class TestExitCodes:
    def test_unknown_subcommand_exits_one(self):
        with pytest.raises(SystemExit) as exc:
            cli.main(["frobnicate"])
        assert exc.value.code == 1

    def test_bad_flag_exits_one(self):
        with pytest.raises(SystemExit) as exc:
            cli.main(["simulate", "--bogus"])
        assert exc.value.code == 1

    def test_missing_subcommand_exits_one(self):
        with pytest.raises(SystemExit) as exc:
            cli.main([])
        assert exc.value.code == 1

    @pytest.mark.parametrize("command", ["simulate", "estimate", "rank", "experiment", "report"])
    def test_file_that_is_not_utf8_exits_one(self, tmp_path, capsys, command):
        bad = tmp_path / "bad.json"
        bad.write_bytes(b"\xff\xfe{}")
        assert cli.main([command, "--config", str(bad), "--out", str(tmp_path)]) == 1
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize(
        "argv",
        [
            ["experiment", "--config", "{dir}", "--out", "{dir}"],
            ["estimate", "--config", "{panel_is_dir}", "--out", "{dir}"],
            ["rank", "--config", "{rank}", "--out", "{file}"],
            ["simulate", "--config", "{simulate}", "--out", "{file}/x"],
        ],
        ids=["config-is-a-directory", "panel-is-a-directory", "out-is-a-file", "out-under-a-file"],
    )
    def test_file_system_error_exits_one_without_a_traceback(self, tmp_path, capsys, argv):
        paths = {"dir": tmp_path / "a_dir", "file": tmp_path / "a_file"}
        paths["dir"].mkdir()
        paths["file"].write_text("")
        paths["panel_is_dir"] = _write(tmp_path, "est.json", {"panel": str(paths["dir"])})
        paths["rank"] = _write(tmp_path, "ctx.json", {"query_index": 0, "warmup_sessions": 20})
        paths["simulate"] = _write(tmp_path, "sim.json", {**SIM_CONFIG, "n_events": 50})
        assert cli.main([arg.format(**paths) for arg in argv]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and "Traceback" not in captured.err
        # the output directory is made before any work, so nothing is printed
        assert captured.out == ""

    def test_invariant_violation_exits_three(self, monkeypatch, tmp_path):
        def boom(args):
            raise InvariantViolation("trap")

        monkeypatch.setattr(cli, "cmd_report", boom)
        assert cli.main(["report", "--out", str(tmp_path)]) == 3

    def test_importing_the_cli_leaves_scipy_stats_unloaded(self):
        proc = subprocess.run(
            [
                sys.executable,
                "-c",
                "import sys, wpxlab.harness.cli; "
                "print('scipy.stats' in sys.modules, 'scipy.special' in sys.modules)",
            ],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False False"

    def test_closed_stdout_exits_one_without_a_traceback(self, tmp_path):
        # the reader closes the pipe before `rank` prints, as `| head -1` can
        cfg = tmp_path / "ctx.json"
        cfg.write_text(json.dumps({"world": {"seed": 3}, "query_index": 0, "warmup_sessions": 20}))
        with subprocess.Popen(
            [sys.executable, "-m", "wpxlab.harness.cli", "rank", "--config", str(cfg)],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
        ) as proc:
            proc.stdout.close()
            stderr = proc.stderr.read().decode()
            code = proc.wait()
        assert code == 1, stderr
        assert "Traceback" not in stderr and "BrokenPipeError" not in stderr

    def test_module_entry_point_runs_in_subprocess(self, tmp_path):
        cfg = tmp_path / "sim.json"
        cfg.write_text(json.dumps({**SIM_CONFIG, "n_events": 50}))
        proc = subprocess.run(
            [
                sys.executable,
                "-m",
                "wpxlab.harness.cli",
                "simulate",
                "--config",
                str(cfg),
                "--out",
                str(tmp_path),
            ],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert (tmp_path / "panel.csv").exists()
