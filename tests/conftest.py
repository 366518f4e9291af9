"""Shared fixtures: the standard complexes and agreement functions.

The complexes and affine tasks are cached at session scope — ``Chr s``
/ ``Chr² s`` and the affine tasks are pure values reused by most test
modules.  ``sleep_kind`` registers a slow job kind for one test.
"""

from __future__ import annotations

import time

import pytest

from repro.adversaries import (
    agreement_function_of,
    figure5b_adversary,
    k_concurrency_alpha,
    t_resilience_alpha,
    wait_free_alpha,
)
from repro.core import r_affine, r_k_obstruction_free, r_t_resilient
from repro.engine.jobs import JOB_KINDS
from repro.topology import chr_complex, standard_simplex


@pytest.fixture(scope="session")
def s3():
    return standard_simplex(3)


@pytest.fixture(scope="session")
def chr1():
    return chr_complex(3, 1)


@pytest.fixture(scope="session")
def chr2():
    return chr_complex(3, 2)


@pytest.fixture(scope="session")
def chr1_n4():
    return chr_complex(4, 1)


@pytest.fixture(scope="session")
def alpha_1of():
    return k_concurrency_alpha(3, 1)


@pytest.fixture(scope="session")
def alpha_2of():
    return k_concurrency_alpha(3, 2)


@pytest.fixture(scope="session")
def alpha_1res():
    return t_resilience_alpha(3, 1)


@pytest.fixture(scope="session")
def alpha_wf():
    return wait_free_alpha(3)


@pytest.fixture(scope="session")
def alpha_fig5b():
    return agreement_function_of(figure5b_adversary(), name="fig5b")


@pytest.fixture(scope="session")
def ra_1of(alpha_1of):
    return r_affine(alpha_1of)


@pytest.fixture(scope="session")
def ra_2of(alpha_2of):
    return r_affine(alpha_2of)


@pytest.fixture(scope="session")
def ra_1res(alpha_1res):
    return r_affine(alpha_1res)


@pytest.fixture(scope="session")
def ra_fig5b(alpha_fig5b):
    return r_affine(alpha_fig5b)


@pytest.fixture(scope="session")
def rkof_1():
    return r_k_obstruction_free(3, 1)


@pytest.fixture(scope="session")
def rtres_1():
    return r_t_resilient(3, 1)


def _sleep(payload: tuple):
    seconds, token = payload
    time.sleep(seconds)
    return token


@pytest.fixture
def sleep_kind(monkeypatch):
    """A slow ``sleep`` job kind — ``(seconds, token) -> token`` — for
    this test only.

    In-process engines and servers resolve kinds at run time, and
    the engine's process pool forks from the patched parent, so both
    see it.
    """
    monkeypatch.setitem(JOB_KINDS, "sleep", _sleep)
