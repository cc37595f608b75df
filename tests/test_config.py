"""Tests for package-level configuration and the exception hierarchy."""

import pytest

import repro
from repro import ConfigurationError, ReproError
from repro.config import PredictOptions, ServiceConfig
from repro.errors import (
    DatasetError,
    EncodingError,
    NetlistError,
    ShapeError,
    SimulationError,
    TrainingError,
)


class TestConfig:
    def test_service_config_defaults_valid(self):
        # Serving defaults to the bit-exact product.
        config = ServiceConfig()
        assert config.backend == "bit-exact-packed"
        # The schedule of an option-less request ends at the full N.
        plan = PredictOptions().resolve(1024, config.early_exit)
        assert plan.checkpoints[-1] == 1024

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
