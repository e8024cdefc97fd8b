"""Tests for the configuration encoder (§4)."""

import numpy as np
import pytest

from repro.space import ConfigurationEncoder, spark_space


DEFAULTS = {p.name: p.default for p in spark_space()}


@pytest.fixture()
def encoder():
    return ConfigurationEncoder(spark_space())


class TestStringRendering:
    def test_booleans_lowercase(self, encoder):
        conf = DEFAULTS
        strings = encoder.to_strings(conf)
        assert strings["spark.shuffle.compress"] == "true"
        assert strings["spark.rdd.compress"] == "false"

    def test_sizes_get_suffix(self, encoder):
        conf = DEFAULTS
        strings = encoder.to_strings(conf)
        assert strings["spark.executor.memory"] == "1024m"
        assert strings["spark.shuffle.file.buffer"] == "32k"

    def test_times_get_suffix(self, encoder):
        strings = encoder.to_strings(DEFAULTS)
        assert strings["spark.locality.wait"] == "3s"
        assert strings["spark.network.timeout"] == "120s"

    def test_unknown_keys_fall_back_to_str(self, encoder):
        strings = encoder.to_strings({"spark.app.name": "bench"})
        assert strings["spark.app.name"] == "bench"


class TestConfFileRoundTrip:
    def test_vector_to_file_contains_all_params(self, encoder):
        text = encoder.to_conf_file(encoder.space.decode(np.full(44, 0.5)))
        lines = [ln for ln in text.splitlines() if ln]
        assert len(lines) == 44

    def test_parse_round_trip(self, encoder):
        conf = DEFAULTS
        text = encoder.to_conf_file(conf)
        parsed = encoder.parse_conf_file(text)
        assert parsed == encoder.to_strings(conf)

    def test_parse_skips_comments_and_blanks(self, encoder):
        parsed = encoder.parse_conf_file(
            "# a comment\n\nspark.executor.cores 4\n")
        assert parsed == {"spark.executor.cores": "4"}

    def test_parse_rejects_malformed(self, encoder):
        with pytest.raises(ValueError):
            encoder.parse_conf_file("just-one-token\n")

    def test_decoded_vector_round_trips_through_file(self, encoder):
        sp = spark_space()
        rng = np.random.default_rng(0)
        u = sp.snap(rng.random(sp.dim))
        conf = encoder.space.decode(u)
        parsed = encoder.parse_conf_file(encoder.to_conf_file(conf))
        assert parsed == encoder.to_strings(conf)
