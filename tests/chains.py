"""Shared test models with their closed-form reference quantities."""

import numpy as np

from rwre.envmodel import EnvironmentSpec

LOG2 = np.log(2.0)


def chain_mk_k1() -> EnvironmentSpec:
    """Odds (1/2, 2); tail index exactly 1 (root of 2a^2 - 3a + 1), speed 0."""
    return EnvironmentSpec(
        states=("calm", "rough"),
        H=np.array([[0.8, 0.2], [0.6, 0.4]]),
        omega=np.array([2 / 3, 1 / 3]),
        epsilon=0.05,
    )


def chain_mk_k2() -> EnvironmentSpec:
    """Odds (1/2, 2); tail index exactly 2 (root of 4a^2 - 5a + 1).

    pi = (31/35, 4/35), crossing profile (26/3, 53/6), speed 7/41.
    """
    return EnvironmentSpec(
        states=("calm", "rough"),
        H=np.array([[0.9, 0.1], [0.775, 0.225]]),
        omega=np.array([2 / 3, 1 / 3]),
        epsilon=0.05,
    )


def iid_k1() -> EnvironmentSpec:
    """Equal rows (1/3, 2/3), odds (2, 1/2); scalar root of E(rho^k) = 1 at 1."""
    return EnvironmentSpec(
        states=("rough", "calm"),
        H=np.array([[1 / 3, 2 / 3], [1 / 3, 2 / 3]]),
        omega=np.array([1 / 3, 2 / 3]),
        epsilon=0.05,
    )


def iid_k2() -> EnvironmentSpec:
    """Equal rows (1/5, 4/5), odds (2, 1/2); scalar root at 2, speed 1/9."""
    return EnvironmentSpec(
        states=("rough", "calm"),
        H=np.array([[1 / 5, 4 / 5], [1 / 5, 4 / 5]]),
        omega=np.array([1 / 3, 2 / 3]),
        epsilon=0.05,
    )


def nonarith_k2() -> EnvironmentSpec:
    """Non-arithmetic tail-index-2 model: strong right drift, rare deep traps.

    Odds (0.15, sqrt(977.5225)): the squared-odds mean under the equal rows
    (0.999, 0.001) is exactly one.
    """
    return EnvironmentSpec(
        states=("drift", "trap"),
        H=np.array([[0.999, 0.001], [0.999, 0.001]]),
        omega=np.array([20 / 23, 0.03099299424947268]),
        epsilon=0.025,
    )


def nonarith_sub1() -> EnvironmentSpec:
    """Non-arithmetic odds (0.45, 2.2); tail index ~0.668, zero speed."""
    return EnvironmentSpec(
        states=("calm", "rough"),
        H=np.array([[0.5, 0.5], [0.7, 0.3]]),
        omega=np.array([20 / 29, 0.3125]),
        epsilon=0.25,
    )


def single_state(rho: float, epsilon: float = 0.05) -> EnvironmentSpec:
    return EnvironmentSpec(
        states=("only",),
        H=np.array([[1.0]]),
        omega=np.array([1.0 / (1.0 + rho)]),
        epsilon=epsilon,
    )


# Tail index of nonarith_sub1 from 40-digit mpmath eigenvalues, rounded to a
# double; the spectral solver reproduces it to the last digit.
SUB1_KAPPA = 0.6682457347296428
