"""Point-batched evaluation: a stack of points gives what its points give one at a time.

Sizes cover the empty stack, one point, one full memory block and one block
plus a point, at states 3, 47 and 228 (where a block holds a single point).
eval_transfer solves each point's pencil with the same LAPACK call, so a stack
equals its points bit for bit.  Series values come from one matmul per stack,
whose summation order differs from a one-point matmul and from a sum taken
term by term, so they and the kernel residuals built on them agree within the
roundoff allowance 10 eps max(1, eps_scale^2) that
AglerDecomposition.kernel_bound grants.
"""

import functools

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from kreinsys.agler import construct_pencil_decomposition, kernel_residual
from kreinsys.systems import system_operators
from kreinsys.transfer import _operator_entries, _point_blocks, eval_series, eval_transfer

from test_transfer import contractive_random_system

STATES = (3, 47, 228)
SIZES = ("empty", "one", "block", "block+1")
EPS = np.finfo(float).eps


@functools.lru_cache(maxsize=3)
def system(n, state):
    """Inputs and outputs of dimension 2; ||A_k|| <= 0.4 keeps I - zA invertible for |z_k| < 0.8."""
    return contractive_random_system(n, state, 2, 2, seed=100 * state + n)


@functools.lru_cache(maxsize=2)
def decomposition(n, state):
    """Degree 2, or 1 at state 228, to keep the stacked coefficients small."""
    g = system_operators(system(n, state))
    return g, construct_pencil_decomposition(g, None, 2 if state < 228 else 1)


def series_by_terms(series, z):
    """sum_s coeff[s] z^s, one term at a time: the reference for eval_series."""
    value = np.zeros(series.shape, dtype=np.complex128)
    for s, m in series.coefficients.items():
        value = value + np.prod(np.power(z, s)) * m
    return value


def count(size, entries):
    block = _point_blocks(4096, entries)[0].stop
    return {"empty": 0, "one": 1, "block": block, "block+1": block + 1}[size]


def points(n, size, seed):
    rng = np.random.default_rng(seed)
    return 0.5 / np.sqrt(2) * (rng.uniform(-1, 1, (size, n)) + 1j * rng.uniform(-1, 1, (size, n)))


cases = given(
    n=st.sampled_from([1, 2, 3]),
    state=st.sampled_from(STATES),
    size=st.sampled_from(SIZES),
    seed=st.integers(0, 2**16),
)


@settings(max_examples=30, deadline=None)
@cases
def test_eval_transfer_stack_is_its_points_bit_for_bit(n, state, size, seed):
    s = system(n, state)
    z = points(n, count(size, _operator_entries(s)), seed)
    got = eval_transfer(s, z)
    assert got.shape == (len(z), 2, 2)
    for zi, value in zip(z, got):
        assert value.tobytes() == eval_transfer(s, zi).tobytes()


@settings(max_examples=20, deadline=None)
@cases
def test_series_and_component_values_match_their_points(n, state, size, seed):
    g, dec = decomposition(n, state)
    allowance = 10 * EPS * max(1.0, dec.epsilon**2)
    for c in dec.components:
        z = points(n, count(size, c.dim * dec.domain_dim), seed)
        stack = eval_series(c.series, z)
        assert stack.shape == (len(z), c.dim, dec.domain_dim)
        np.testing.assert_array_equal(c.value(z), stack)
        for zi, value in zip(z, stack):
            assert np.max(np.abs(value - eval_series(c.series, zi))) <= allowance
            assert np.max(np.abs(value - series_by_terms(c.series, zi))) <= allowance


@settings(max_examples=20, deadline=None)
@cases
def test_kernel_residual_stack_matches_its_pairs(n, state, size, seed):
    g, dec = decomposition(n, state)
    allowance = 10 * EPS * max(1.0, dec.epsilon**2)
    size = count(size, max(c.dim for c in dec.components) * dec.domain_dim)
    lam, z = points(n, size, seed), points(n, size, seed + 1)
    got = kernel_residual(g, dec, lam, z)
    assert got.shape == (size,)
    for li, zi, residual in zip(lam, z, got):
        assert abs(residual - kernel_residual(g, dec, li, zi)) <= allowance
