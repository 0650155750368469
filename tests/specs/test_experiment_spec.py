"""Tests for the top-level experiment document and its CLI commands."""

import json

import pytest

from repro.exceptions import ConfigurationError, SpecError
from repro.experiments import ExperimentConfig, run_comparison
from repro.specs import ExperimentSpec, Spec, default_experiment_spec


def _small_spec(**overrides) -> ExperimentSpec:
    base = dict(
        dataset=Spec(kind="mr", params={"scale": 0.06, "seed": 7}),
        strategies={"random": Spec(kind="random"), "entropy": Spec(kind="entropy")},
        config=ExperimentConfig(batch_size=5, rounds=2, repeats=1, seed=7),
    )
    base.update(overrides)
    return ExperimentSpec(**base)


class TestExperimentSpec:
    def test_default_document_validates(self):
        notes = default_experiment_spec().validate()
        assert any("grid:" in note for note in notes)

    def test_dict_roundtrip(self):
        spec = default_experiment_spec()
        assert ExperimentSpec.from_dict(spec.to_dict()).to_dict() == spec.to_dict()

    def test_file_roundtrip(self, tmp_path):
        spec = _small_spec()
        path = tmp_path / "experiment.json"
        spec.save(path)
        assert ExperimentSpec.from_file(path).to_dict() == spec.to_dict()

    def test_no_strategies_rejected(self):
        with pytest.raises(SpecError, match="no strategies"):
            _small_spec(strategies={})

    def test_unknown_top_level_key_rejected(self):
        payload = _small_spec().to_dict()
        payload["extra"] = 1
        with pytest.raises(SpecError, match="unknown experiment key"):
            ExperimentSpec.from_dict(payload)

    def test_unknown_runner_option_rejected(self):
        payload = _small_spec().to_dict()
        payload["runner"]["bogus"] = 1
        with pytest.raises(SpecError, match="unknown runner option"):
            ExperimentSpec.from_dict(payload)

    def test_version_mismatch_rejected(self):
        payload = _small_spec().to_dict()
        payload["version"] = 99
        with pytest.raises(SpecError, match="version"):
            ExperimentSpec.from_dict(payload)

    def test_unreadable_file_rejected(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(SpecError, match="cannot read"):
            ExperimentSpec.from_file(path)

    def test_task_and_default_model(self):
        spec = _small_spec()
        assert spec.task == "text"
        assert spec.resolved_model().kind == "linear"

    def test_training_mode_round_trips(self):
        spec = _small_spec(
            config=ExperimentConfig(
                batch_size=5, rounds=2, repeats=1, seed=7, training_mode="warm"
            )
        )
        payload = spec.to_dict()
        assert payload["experiment"]["training_mode"] == "warm"
        restored = ExperimentSpec.from_dict(json.loads(json.dumps(payload)))
        assert restored.config.training_mode == "warm"
        assert restored.to_dict() == payload

    def test_invalid_training_mode_rejected(self):
        with pytest.raises(ConfigurationError, match="training_mode"):
            ExperimentConfig(
                batch_size=5, rounds=2, repeats=1, seed=7, training_mode="hot"
            )

    def test_validate_rejects_oversized_grid(self):
        spec = _small_spec(
            config=ExperimentConfig(batch_size=500, rounds=10, repeats=1, seed=7)
        )
        with pytest.raises(SpecError, match="pool samples"):
            spec.validate()


class TestFieldTypes:
    """Mistyped shape and runner fields raise typed errors, never coerce."""

    @pytest.mark.parametrize(
        "field, value",
        [
            ("rounds", "x"),
            ("batch_size", 1.5),
            ("repeats", True),
            ("seed", "7"),
            ("initial_size", 2.5),
            ("track_flips", "yes"),
        ],
    )
    def test_mistyped_experiment_field_rejected(self, field, value):
        payload = _small_spec().to_dict()
        payload["experiment"][field] = value
        with pytest.raises(ConfigurationError, match=field):
            ExperimentSpec.from_dict(payload)

    @pytest.mark.parametrize(
        "option, value",
        [
            ("n_jobs", "2"),
            ("n_jobs", True),
            ("resume", 1),
            ("max_retries", 1.5),
            ("backoff", "0.5"),
            ("on_error", None),
            ("checkpoint_dir", 3),
            ("timeout", "60"),
            ("report.plot", "yes"),
        ],
    )
    def test_mistyped_runner_option_rejected(self, option, value):
        payload = _small_spec().to_dict()
        section, _, key = option.rpartition(".")
        payload[section or "runner"][key] = value
        with pytest.raises(SpecError, match=key):
            ExperimentSpec.from_dict(payload)

    def test_numeric_options_accept_ints_and_nulls(self):
        payload = _small_spec().to_dict()
        payload["runner"].update(backoff=1, lease_ttl=5, timeout=60, queue_dir=None)
        runner = ExperimentSpec.from_dict(payload).runner
        assert (runner["backoff"], runner["lease_ttl"], runner["timeout"]) == (1, 5, 60)

    @pytest.mark.parametrize(
        "section, field, value",
        [("experiment", "rounds", "x"), ("experiment", "batch_size", 1.5),
         ("runner", "n_jobs", "2")],
    )
    def test_config_validate_reports_mistyped_field(
        self, tmp_path, capsys, section, field, value
    ):
        from repro.cli import main

        path = tmp_path / "experiment.json"
        payload = _small_spec().to_dict()
        payload[section][field] = value
        path.write_text(json.dumps(payload))
        assert main(["config", "validate", str(path)]) == 2
        captured = capsys.readouterr()
        assert field in captured.err
        assert "valid experiment document" not in captured.out


class TestRunComparisonValidation:
    def test_oversized_grid_rejected_up_front(self, text_dataset):
        config = ExperimentConfig(batch_size=400, rounds=2, repeats=1, seed=0)
        with pytest.raises(ConfigurationError, match="pool samples"):
            run_comparison(
                {"kind": "linear", "params": {"epochs": 1, "seed": 0}},
                {"random": {"kind": "random"}},
                text_dataset.subset(range(300)),
                text_dataset.subset(range(300, 400)),
                config=config,
            )

    def test_exact_fit_accepted(self, text_dataset):
        # labels_needed == pool size is legal: the last round empties the pool.
        config = ExperimentConfig(
            batch_size=5, rounds=2, initial_size=10, repeats=1, seed=0
        )
        results = run_comparison(
            {"kind": "linear", "params": {"epochs": 1, "seed": 0}},
            {"random": {"kind": "random"}},
            text_dataset.subset(range(20)),
            text_dataset.subset(range(300, 360)),
            config=config,
        )
        assert set(results) == {"random"}


class TestConfigCli:
    def test_show_defaults_is_valid_json(self, capsys):
        from repro.cli import main

        assert main(["config", "show", "--defaults"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["format"] == "repro.experiment"

    def test_validate_reports_components(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "experiment.json"
        _small_spec().save(path)
        assert main(["config", "validate", str(path)]) == 0
        out = capsys.readouterr().out
        assert "valid experiment document" in out
        assert "strategy 'entropy'" in out

    def test_validate_bad_document_exits_2(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "experiment.json"
        payload = _small_spec().to_dict()
        payload["strategies"]["entropy"] = {"kind": "nope"}
        path.write_text(json.dumps(payload))
        assert main(["config", "validate", str(path)]) == 2
        assert "unknown strategy kind" in capsys.readouterr().err

    @pytest.mark.parametrize("kind", ["mr", "conll-en"])
    def test_over_cap_scale_exits_2(self, tmp_path, capsys, kind):
        """A huge dataset scale fails validation before any corpus is built."""
        from repro.cli import main

        path = tmp_path / "experiment.json"
        payload = _small_spec().to_dict()
        payload["dataset"] = {"kind": kind, "params": {"scale": 1e300, "seed": 7}}
        path.write_text(json.dumps(payload))
        with pytest.raises(ConfigurationError, match="scale"):
            ExperimentSpec.from_file(path).validate()
        assert main(["config", "validate", str(path)]) == 2
        assert "scale must be in" in capsys.readouterr().err

    def test_run_config_matches_compare_flags(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "experiment.json"
        _small_spec(
            model=Spec(kind="linear", params={"epochs": 2, "batch_size": 32, "seed": 0}),
        ).save(path)
        assert main(["run", "--config", str(path)]) == 0
        config_out = capsys.readouterr().out
        assert main([
            "compare", "--dataset", "mr", "--scale", "0.06", "--seed", "7",
            "--strategies", "random", "entropy",
            "--batch-size", "5", "--rounds", "2", "--repeats", "1",
            "--epochs", "2",
        ]) == 0
        flags_out = capsys.readouterr().out
        assert config_out == flags_out
