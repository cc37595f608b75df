"""Public API: model artifacts, sessions, options, and the CLI.

Pins down the train-once / deploy-forever contracts of :mod:`repro.api`:

* **artifact round-trip is bit-exact** -- ``ScModel.save``/``load``
  reconstructs a mapper whose ``bit-exact-packed`` scores are identical
  to the original, in-process *and* in a freshly spawned interpreter;
* **artifacts are versioned and tamper-evident** -- corrupted manifests,
  mismatched weights and foreign major versions all raise
  :class:`~repro.errors.ConfigurationError`;
* **options validate once, at construction** -- zero/negative deadlines,
  unsorted checkpoints and oversized stream lengths fail in the caller;
* **the Session facade** routes predict/evaluate/serve through the same
  backends with identical scores, and the ``python -m repro`` CLI is a
  thin shell over it (its predict output matches an in-process run bit
  for bit -- also asserted by the CI ``smoke`` job).
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from nets import tiny_cnn

from repro.api import FORMAT_VERSION, PredictOptions, ScModel, Session
from repro.backends import ParallelBackend, create_backend
from repro.config import ServiceConfig
from repro.errors import ConfigurationError
from repro.nn.layers import Layer

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC = REPO_ROOT / "src"


@pytest.fixture(scope="module")
def model():
    return ScModel(
        tiny_cnn(),
        weight_bits=10,
        stream_length=128,
        seed=7,
        metadata={"dataset": {"n_train": 8, "n_test": 4, "seed": 1}},
    )


@pytest.fixture(scope="module")
def images():
    return np.random.default_rng(11).random((4, 1, 28, 28))


@pytest.fixture()
def artifact(model, tmp_path):
    return model.save(tmp_path / "model")


class TestArtifactRoundTrip:
    def test_save_load_scores_bit_identical(self, model, artifact, images):
        loaded = ScModel.load(artifact)
        original = create_backend("bit-exact-packed", model.mapper())
        restored = create_backend("bit-exact-packed", loaded.mapper())
        assert np.array_equal(
            restored.forward(images), original.forward(images)
        )

    def test_forward_partial_round_trips_too(self, model, artifact, images):
        loaded = ScModel.load(artifact)
        checkpoints = (16, 64, 128)
        original = create_backend("bit-exact-packed", model.mapper())
        restored = create_backend("bit-exact-packed", loaded.mapper())
        assert np.array_equal(
            restored.forward_partial(images, checkpoints),
            original.forward_partial(images, checkpoints),
        )

    def test_metadata_and_configuration_survive(self, model, artifact):
        loaded = ScModel.load(artifact)
        assert loaded.stream_length == model.stream_length
        assert loaded.weight_bits == model.weight_bits
        assert loaded.seed == model.seed
        assert loaded.metadata == model.metadata
        assert loaded.network.name == model.network.name

    def test_fresh_process_scores_bit_identical(
        self, model, artifact, images, tmp_path
    ):
        """The acceptance criterion: load in a separate interpreter."""
        expected = create_backend("bit-exact-packed", model.mapper()).forward(
            images
        )
        images_path = tmp_path / "images.npy"
        scores_path = tmp_path / "scores.npy"
        np.save(images_path, images)
        code = (
            "import sys, numpy as np\n"
            "from repro.api import Session\n"
            "session = Session.from_artifact(sys.argv[1])\n"
            "scores = session.predict(np.load(sys.argv[2])).scores\n"
            "np.save(sys.argv[3], scores)\n"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
        subprocess.run(
            [
                sys.executable,
                "-c",
                code,
                str(artifact),
                str(images_path),
                str(scores_path),
            ],
            check=True,
            env=env,
            timeout=300,
        )
        assert np.array_equal(np.load(scores_path), expected)


class TestArtifactValidation:
    def test_missing_artifact_raises(self, tmp_path):
        with pytest.raises(ConfigurationError, match="no model artifact"):
            ScModel.load(tmp_path / "nowhere")

    def test_corrupted_manifest_raises(self, artifact):
        (artifact / "manifest.json").write_text("{not json!")
        with pytest.raises(ConfigurationError, match="corrupted"):
            ScModel.load(artifact)

    def test_major_version_mismatch_raises(self, artifact):
        manifest = json.loads((artifact / "manifest.json").read_text())
        manifest["format_version"] = [FORMAT_VERSION[0] + 1, 0]
        (artifact / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(ConfigurationError, match="format version"):
            ScModel.load(artifact)

    def test_newer_minor_version_loads(self, artifact):
        manifest = json.loads((artifact / "manifest.json").read_text())
        manifest["format_version"] = [FORMAT_VERSION[0], FORMAT_VERSION[1] + 7]
        (artifact / "manifest.json").write_text(json.dumps(manifest))
        assert ScModel.load(artifact).stream_length == 128

    def test_foreign_format_tag_raises(self, artifact):
        manifest = json.loads((artifact / "manifest.json").read_text())
        manifest["format"] = "somebody-elses-model"
        (artifact / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(ConfigurationError, match="format"):
            ScModel.load(artifact)

    def test_tampered_weights_raise(self, artifact):
        weights = artifact / "weights.npz"
        payload = bytearray(weights.read_bytes())
        payload[-1] ^= 0xFF
        weights.write_bytes(bytes(payload))
        with pytest.raises(ConfigurationError, match="digest"):
            ScModel.load(artifact)

    def test_unknown_layer_kind_raises(self, artifact):
        manifest = json.loads((artifact / "manifest.json").read_text())
        manifest["network"]["layers"][0]["kind"] = "quantum-foam"
        (artifact / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(ConfigurationError, match="quantum-foam"):
            ScModel.load(artifact)

    def test_unserializable_layer_rejected_at_save(self, tmp_path):
        class Mystery(Layer):
            def forward(self, inputs, training=False):
                return inputs

            def backward(self, grad_output):
                return grad_output

        from repro.nn.layers import Network

        model = ScModel(Network([Mystery()]), stream_length=64)
        with pytest.raises(ConfigurationError, match="Mystery"):
            model.save(tmp_path / "bad")


class TestQuantizedArtifact:
    def test_quantized_codes_stored_natively(self, model, artifact):
        assert (artifact / "quantized.npz").is_file()
        manifest = json.loads((artifact / "manifest.json").read_text())
        assert "quantized_sha256" in manifest
        with np.load(artifact / "quantized.npz") as archive:
            assert len(archive.files) == len(model.network.parameters())
            assert all(archive[n].dtype == np.int64 for n in archive.files)

    def test_loaded_mapper_uses_stored_codes_bit_exactly(
        self, model, artifact, images
    ):
        loaded = ScModel.load(artifact)
        assert loaded.quantized_params is not None
        assert len(loaded.quantized_params) == len(model.network.parameters())
        original = create_backend("bit-exact-packed", model.mapper())
        restored = create_backend("bit-exact-packed", loaded.mapper())
        assert np.array_equal(
            restored.forward(images), original.forward(images)
        )

    def test_pre_quantized_artifact_still_loads(self, model, artifact, images):
        # Simulate a 1.0 artifact: no quantized file, no manifest field.
        manifest = json.loads((artifact / "manifest.json").read_text())
        del manifest["quantized_sha256"]
        manifest["format_version"] = [1, 0]
        (artifact / "manifest.json").write_text(json.dumps(manifest))
        (artifact / "quantized.npz").unlink()
        loaded = ScModel.load(artifact)
        assert loaded.quantized_params is None
        original = create_backend("bit-exact-packed", model.mapper())
        restored = create_backend("bit-exact-packed", loaded.mapper())
        assert np.array_equal(
            restored.forward(images), original.forward(images)
        )

    def test_tampered_quantized_codes_raise(self, artifact):
        quantized = artifact / "quantized.npz"
        payload = bytearray(quantized.read_bytes())
        payload[-1] ^= 0xFF
        quantized.write_bytes(bytes(payload))
        with pytest.raises(ConfigurationError, match="quantized digest"):
            ScModel.load(artifact)

    def test_missing_quantized_file_raises(self, artifact):
        (artifact / "quantized.npz").unlink()
        with pytest.raises(ConfigurationError, match="quantized"):
            ScModel.load(artifact)

    def test_codes_round_trip_equals_quantized_weights(self):
        from repro.nn.quantization import (
            dequantize_weights,
            quantization_codes,
            quantize_weights,
        )

        weights = np.random.default_rng(9).uniform(-1.3, 1.3, size=(37, 11))
        for bits in (1, 4, 10, 16):
            np.testing.assert_array_equal(
                dequantize_weights(quantization_codes(weights, bits), bits),
                quantize_weights(weights, bits),
            )


class TestPredictOptions:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"deadline_ms": 0.0},
            {"deadline_ms": -5.0},
            {"stream_length": 0},
            {"stream_length": -1},
            {"checkpoints": ()},
            {"checkpoints": (64, 32)},
            {"checkpoints": (32, 32)},
            {"checkpoints": (0, 32)},
            {"workers": 0},
        ],
    )
    def test_invalid_options_raise_at_construction(self, kwargs):
        with pytest.raises(ConfigurationError):
            PredictOptions(**kwargs)

    def test_defaults_resolve_to_service_schedule(self):
        resolved = PredictOptions().resolve(1024)
        assert resolved.stream_length == 1024
        assert resolved.checkpoints == (128, 256, 512, 1024)
        assert resolved.early_exit is False
        assert resolved.explicit_schedule is False
        assert resolved.cacheable is True

    def test_stream_length_truncates_schedule(self):
        resolved = PredictOptions(stream_length=256).resolve(1024)
        assert resolved.stream_length == 256
        assert resolved.checkpoints[-1] == 256
        assert resolved.explicit_schedule is True

    def test_oversized_stream_length_rejected_at_resolve(self):
        with pytest.raises(ConfigurationError, match="exceeds"):
            PredictOptions(stream_length=2048).resolve(1024)

    def test_checkpoints_get_full_stream_fallback_appended(self):
        resolved = PredictOptions(checkpoints=(32, 64)).resolve(1024)
        assert resolved.checkpoints == (32, 64, 1024)

    def test_checkpoints_overrunning_stream_length_rejected(self):
        with pytest.raises(ConfigurationError, match="overrun"):
            PredictOptions(stream_length=64, checkpoints=(32, 128)).resolve(1024)

    def test_cache_token_distinguishes_schedules(self):
        base = PredictOptions().resolve(1024)
        shorter = PredictOptions(stream_length=512).resolve(1024)
        rescheduled = PredictOptions(checkpoints=(64,)).resolve(1024)
        exiting = PredictOptions(early_exit=True).resolve(1024)
        tokens = {
            base.cache_token,
            shorter.cache_token,
            rescheduled.cache_token,
            exiting.cache_token,
        }
        assert len(tokens) == 4

    def test_deadline_is_not_cacheable_and_not_in_token(self):
        hurried = PredictOptions(deadline_ms=5.0).resolve(1024)
        assert hurried.cacheable is False
        assert hurried.cache_token == PredictOptions().resolve(1024).cache_token


class TestSession:
    def test_predict_matches_backend_forward(self, artifact, images):
        with Session.from_artifact(artifact) as session:
            result = session.predict(images)
            direct = session.backend().forward(images)
            assert np.array_equal(result.scores, direct)
            assert result.backend == "bit-exact-packed"
            assert np.all(result.exit_checkpoints == 128)

    def test_predict_with_reduced_stream_length(self, artifact, images):
        with Session.from_artifact(artifact) as session:
            result = session.predict(images, PredictOptions(stream_length=64))
            prefix = session.backend().forward_partial(images, (64,))
            assert result.stream_length == 64
            assert np.array_equal(result.scores, prefix[-1])

    def test_predict_early_exit_matches_progressive(self, artifact, images):
        with Session.from_artifact(artifact) as session:
            result = session.predict(images, PredictOptions(early_exit=True))
            assert result.checkpoint_scores is not None
            assert np.array_equal(
                result.checkpoint_scores[-1],
                session.backend().forward(images),
            )

    def test_explicit_schedule_requires_progressive_backend(
        self, artifact, images
    ):
        with Session.from_artifact(artifact, backend="float") as session:
            with pytest.raises(ConfigurationError, match="progressive"):
                session.predict(images, PredictOptions(stream_length=64))

    def test_unknown_backend_fails_at_construction(self, model):
        with pytest.raises(ConfigurationError, match="unknown backend"):
            Session(model, backend="typo")

    def test_evaluate_reports_backend_mode(self, artifact, images):
        with Session.from_artifact(artifact) as session:
            result = session.evaluate(images, [0, 1, 2, 3], backend="sc-fast")
            assert result.mode == "sc-fast"
            assert result.n_images == 4

    def test_backend_cache_reuses_instances(self, artifact):
        with Session.from_artifact(artifact) as session:
            assert session.backend() is session.backend()
            assert session.backend("sc-fast") is not session.backend()

    def test_unhashable_backend_options_bypass_the_cache(self, artifact):
        with Session.from_artifact(artifact) as session:
            # List-valued options cannot key the cache; the session must
            # fall back to uncached construction, so any error comes from
            # the backend constructor -- never from hashing the key.
            with pytest.raises(TypeError) as err:
                session.backend("bit-exact-packed", position_chunk=[1, 2])
            assert "unhashable" not in str(err.value)

    def test_closed_session_rejects_work(self, artifact):
        session = Session.from_artifact(artifact)
        session.close()
        with pytest.raises(ConfigurationError, match="closed"):
            session.backend()

    def test_parallel_backend_rehydrates_from_artifact(
        self, model, artifact, images
    ):
        """The sharded replicas of an artifact session run the saved model."""
        expected = create_backend("bit-exact-packed", model.mapper()).forward(
            images
        )
        with Session.from_artifact(artifact) as session:
            result = session.predict(images, PredictOptions(workers=2))
        assert np.array_equal(result.scores, expected)

    def test_sharded_backends_are_cached_and_closed(self, artifact, images):
        session = Session.from_artifact(artifact)
        options = PredictOptions(workers=2)
        session.predict(images, options)
        session.predict(images, options)
        sharded = [
            b for b in session._backends.values() if isinstance(b, ParallelBackend)
        ]
        assert len(sharded) == 1  # one cached wrapper, reused
        session.close()
        with pytest.raises(ConfigurationError, match="closed"):
            sharded[0].forward(images)

    @pytest.mark.parametrize("backend", ["bit-exact-packed", "bit-exact-native"])
    @pytest.mark.parametrize("checkpoints", [None, (32, 64, 128)])
    def test_predict_workers_bit_identical(
        self, artifact, images, backend, checkpoints
    ):
        """Thread sharding is a placement decision: scores never move, on
        the NumPy tier (pinned for ``bit-exact-packed``) or the default."""
        tier = {"use_native": False} if backend == "bit-exact-packed" else {}
        with Session.from_artifact(artifact, backend=backend, **tier) as session:
            plain = session.predict(images, PredictOptions(checkpoints=checkpoints))
            sharded = session.predict(
                images, PredictOptions(checkpoints=checkpoints, workers=2)
            )
        assert sharded.backend == backend
        assert np.array_equal(sharded.scores, plain.scores)
        if checkpoints is not None:
            assert np.array_equal(
                sharded.checkpoint_scores, plain.checkpoint_scores
            )

    def test_evaluate_workers_matches_unsharded(self, artifact, images):
        labels = [0, 1, 2, 3]
        with Session.from_artifact(artifact) as session:
            plain = session.evaluate(images, labels)
            sharded = session.evaluate(images, labels, workers=2)
        assert sharded == plain

    def test_serve_through_artifact_is_bit_identical(self, artifact, images):
        config = ServiceConfig(
            backend="bit-exact-packed",
            early_exit=False,
            cache_capacity=0,
            num_workers=1,
        )
        with Session.from_artifact(artifact) as session:
            expected = session.backend().forward(images)
            with session.serve(config) as service:
                response = service.infer(images, timeout=300)
            assert np.array_equal(response.scores, expected)

    def test_engine_delegates_to_session(self, images):
        from repro.nn import ScInferenceEngine

        network = tiny_cnn()
        engine = ScInferenceEngine(network, stream_length=128, seed=7)
        result = engine.evaluate(images, [0, 1, 2, 3], backend="bit-exact-packed")
        direct = engine.session.evaluate(
            images, [0, 1, 2, 3], backend="bit-exact-packed"
        )
        assert result.accuracy == direct.accuracy
        assert engine.session.mapper is engine.mapper

    def test_engine_classify_bit_exact_matches_legacy_oracle(self, images):
        from repro.nn import ScInferenceEngine

        engine = ScInferenceEngine(tiny_cnn(), stream_length=128, seed=7)
        label, scores = engine.classify_bit_exact(images[0])
        expected = engine.mapper.bit_exact_forward_legacy(images[0])
        assert np.array_equal(scores, expected)
        assert label == int(np.argmax(expected))

    def test_engine_save_exports_loadable_artifact(self, images, tmp_path):
        from repro.nn import ScInferenceEngine

        engine = ScInferenceEngine(tiny_cnn(), stream_length=128, seed=7)
        path = engine.save(tmp_path / "engine_model")
        expected = engine.backend("bit-exact-packed").forward(images)
        with Session.from_artifact(path) as session:
            assert np.array_equal(session.predict(images).scores, expected)


class TestCli:
    """`python -m repro` round trip on a deliberately tiny budget."""

    def _run(self, *argv: str) -> None:
        from repro.cli import main

        assert main(list(argv)) == 0

    def test_train_predict_serve_round_trip(self, tmp_path, capsys):
        artifact = tmp_path / "cli_model"
        self._run(
            "train",
            "--quick",
            "--quiet",
            "--arch",
            "tiny",
            "--epochs",
            "1",
            "--train-images",
            "64",
            "--test-images",
            "16",
            "--stream-length",
            "128",
            "--output",
            str(artifact),
        )
        assert (artifact / "manifest.json").is_file()
        json_path = tmp_path / "pred.json"
        self._run(
            "predict",
            "--model",
            str(artifact),
            "--images",
            "4",
            "--json",
            str(json_path),
        )
        payload = json.loads(json_path.read_text())
        assert payload["backend"] == "bit-exact-packed"
        # The CLI is a thin shell over the Session facade: its scores are
        # bit-identical to an in-process run over the same images.
        from repro.cli import _test_images

        with Session.from_artifact(artifact) as session:
            images, _ = _test_images(session, 4)
            expected = session.predict(images).scores
        assert np.array_equal(np.asarray(payload["scores"]), expected)
        self._run(
            "evaluate", "--model", str(artifact), "--max-images", "4"
        )
        self._run(
            "serve",
            "--model",
            str(artifact),
            "--requests",
            "4",
            "--backend",
            "bit-exact-packed",
        )
        out = capsys.readouterr().out
        assert "accuracy over served requests" in out

    def test_predict_workers_flag_is_bit_identical(self, tmp_path):
        artifact = ScModel(
            tiny_cnn(),
            stream_length=128,
            seed=7,
            metadata={"dataset": {"n_train": 20, "n_test": 10, "seed": 1}},
        ).save(tmp_path / "model")
        for name, extra in (("plain", ()), ("sharded", ("--workers", "2"))):
            self._run(
                "predict",
                "--model",
                str(artifact),
                "--images",
                "4",
                "--json",
                str(tmp_path / f"{name}.json"),
                *extra,
            )
        plain, sharded = (
            json.loads((tmp_path / f"{name}.json").read_text())
            for name in ("plain", "sharded")
        )
        assert sharded["backend"] == plain["backend"] == "bit-exact-packed"
        assert sharded["scores"] == plain["scores"]

    def test_serving_subcommands_have_no_workers_flag(self, artifact, capsys):
        # Services scale by --service-workers replicas, fleets by
        # --fleet-workers processes; --workers only ever shards one batch.
        from repro.cli import main

        for command in ("serve", "metrics", "trace"):
            with pytest.raises(SystemExit):
                main([command, "--model", str(artifact), "--workers", "2"])
            assert "--workers" in capsys.readouterr().err

    def test_backends_lists_registry(self, capsys):
        self._run("backends")
        out = capsys.readouterr().out
        assert "bit-exact-packed" in out and "sc-fast" in out
