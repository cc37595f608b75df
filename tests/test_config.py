"""Tests for package-level configuration and the exception hierarchy."""

import pytest

import repro
from repro import ConfigurationError, ExperimentConfig, ReproError, default_config
from repro.config import ServiceConfig
from repro.errors import (
    DatasetError,
    EncodingError,
    NetlistError,
    ShapeError,
    SimulationError,
    TrainingError,
)


class TestConfig:
    def test_defaults(self):
        config = default_config()
        assert config.stream_length == 1024
        assert config.weight_bits == 10

    def test_with_stream_length(self):
        config = default_config().with_stream_length(256)
        assert config.stream_length == 256
        assert config.weight_bits == default_config().weight_bits

    def test_with_stream_length_round_trip(self):
        """Copy-mutate-copy returns to an equal (frozen) config."""
        base = default_config()
        changed = base.with_stream_length(256)
        assert changed is not base
        assert base.stream_length == 1024  # the original is untouched
        assert changed.with_stream_length(base.stream_length) == base

    def test_with_backend_round_trip(self):
        base = default_config()
        changed = base.with_backend("bit-exact-packed")
        assert changed.default_backend == "bit-exact-packed"
        assert base.default_backend == "sc-fast"  # the original is untouched
        assert changed.stream_length == base.stream_length
        assert changed.with_backend(base.default_backend) == base

    def test_empty_default_backend_rejected(self):
        with pytest.raises(ConfigurationError, match="default_backend"):
            ExperimentConfig(default_backend="")
        with pytest.raises(ConfigurationError, match="default_backend"):
            ExperimentConfig(default_backend=None)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            ExperimentConfig(stream_length=0)
        with pytest.raises(ConfigurationError):
            ExperimentConfig(weight_bits=0)
        with pytest.raises(ConfigurationError):
            ExperimentConfig(aqfp_clock_hz=-1)

    def test_service_config_defaults_valid(self):
        # Serving defaults to the bit-exact product; evaluation defaults
        # to the statistical accuracy model.
        config = ServiceConfig()
        assert config.backend == "bit-exact-packed"
        assert ExperimentConfig().default_backend == "sc-fast"
        assert config.checkpoint_fractions[-1] == 1.0

    def test_version_exposed(self):
        assert repro.__version__


class TestErrors:
    @pytest.mark.parametrize(
        "error",
        [
            ConfigurationError,
            EncodingError,
            ShapeError,
            NetlistError,
            SimulationError,
            TrainingError,
            DatasetError,
        ],
    )
    def test_all_derive_from_repro_error(self, error):
        assert issubclass(error, ReproError)
        with pytest.raises(ReproError):
            raise error("boom")
