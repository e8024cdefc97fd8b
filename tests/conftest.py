"""Shared fixtures for the test suite."""

from __future__ import annotations

import os

import numpy as np
import pytest

import repro.obs.durable as durable
from repro.space import spark_space
from repro.sparksim import SparkSimulator


@pytest.fixture()
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)


@pytest.fixture(scope="session")
def space():
    """The full 44-dimensional Spark tuning space."""
    return spark_space()


@pytest.fixture(scope="session")
def simulator() -> SparkSimulator:
    return SparkSimulator()


@pytest.fixture()
def fsyncs(monkeypatch) -> list[int]:
    """The size of the file behind each ``os.fsync`` that
    :mod:`repro.obs.durable` makes, in call order."""
    sizes: list[int] = []
    real = os.fsync

    def counting(fd):
        sizes.append(os.fstat(fd).st_size)
        real(fd)

    monkeypatch.setattr(durable.os, "fsync", counting)
    return sizes
