"""Shared fixtures: the reference symmetric configuration and random draws."""

import math
import random

import numpy as np
import pytest

from coopic.model import (
    ChannelGains,
    PowerBudget,
    RcAllocation,
    Simplex2,
    Simplex3,
    TcAllocation,
)

SQRT2 = math.sqrt(2.0)


@pytest.fixture(scope="session")
def ref_gains() -> ChannelGains:
    """Symmetric reference channel: direct 1, cross sqrt(2), conferencing 10."""
    return ChannelGains(c12=10.0, c13=1.0, c14=SQRT2, c23=SQRT2, c24=1.0, c34=10.0)


@pytest.fixture(scope="session")
def ref_powers() -> PowerBudget:
    return PowerBudget(5.0, 5.0, 5.0, 5.0)


def random_gains(rng: np.random.Generator, lo: float = 0.1, hi: float = 10.0) -> ChannelGains:
    v = rng.uniform(lo, hi, size=6)
    return ChannelGains(c12=v[0], c13=v[1], c14=v[2], c23=v[3], c24=v[4], c34=v[5])


def random_powers(rng: np.random.Generator, lo: float = 0.1, hi: float = 20.0) -> PowerBudget:
    v = rng.uniform(lo, hi, size=4)
    return PowerBudget(*v)


def odd_squares(rng: np.random.Generator, n: int) -> list[float]:
    """n gains whose ``x ** 2`` (libm's pow) is not ``x * x``, where this
    platform has them in 20,000 draws (plain draws make up the rest).  The
    kernels square by multiplying, on floats and on lane columns alike, so
    even such gains score the same both ways."""
    draws = rng.uniform(0.5, 1.7, 20000).tolist()
    return ([x for x in draws if x ** 2 != x * x] + draws)[:n]


def zero_cooperation_channels(seed: int, n: int):
    """n channels with c12 = c34 = 0: direct and cross gains log-uniform in
    [0.1, 5], all four powers equal and log-uniform in [1, 20]."""
    rnd = random.Random(seed)

    def draw(lo, hi):
        return math.exp(rnd.uniform(math.log(lo), math.log(hi)))

    for _ in range(n):
        c13, c14, c23, c24 = (draw(0.1, 5.0) for _ in range(4))
        yield (ChannelGains(c12=0.0, c13=c13, c14=c14, c23=c23, c24=c24, c34=0.0),
               PowerBudget(*[draw(1.0, 20.0)] * 4))


def random_tc_allocation(rng: np.random.Generator) -> TcAllocation:
    return TcAllocation(
        lam=Simplex3(*rng.dirichlet([1.0, 1.0, 1.0])),
        kappa=Simplex2(*rng.dirichlet([1.0, 1.0])),
        gamma=Simplex2(*rng.dirichlet([1.0, 1.0])),
        alpha=Simplex2(*rng.dirichlet([1.0, 1.0])),
        beta=Simplex2(*rng.dirichlet([1.0, 1.0])),
        mu=Simplex3(*rng.dirichlet([1.0, 1.0, 1.0])),
        eta=Simplex3(*rng.dirichlet([1.0, 1.0, 1.0])),
    )


def random_rc_allocation(rng: np.random.Generator) -> RcAllocation:
    return RcAllocation(
        lam=Simplex3(*rng.dirichlet([1.0, 1.0, 1.0])),
        mu=Simplex3(*rng.dirichlet([1.0, 1.0, 1.0])),
        eta=Simplex3(*rng.dirichlet([1.0, 1.0, 1.0])),
        alpha=Simplex2(*rng.dirichlet([1.0, 1.0])),
        beta=Simplex2(*rng.dirichlet([1.0, 1.0])),
    )


def tc_allocation_dict(a: TcAllocation) -> dict:
    return {"lam": tuple(a.lam), "kappa": tuple(a.kappa), "gamma": tuple(a.gamma),
            "alpha": tuple(a.alpha), "beta": tuple(a.beta),
            "mu": tuple(a.mu), "eta": tuple(a.eta)}


def rc_allocation_dict(a: RcAllocation) -> dict:
    return {"lam": tuple(a.lam), "mu": tuple(a.mu), "eta": tuple(a.eta),
            "alpha": tuple(a.alpha), "beta": tuple(a.beta)}


def gains_dict(g: ChannelGains) -> dict:
    return {"c12": g.c12, "c13": g.c13, "c14": g.c14,
            "c23": g.c23, "c24": g.c24, "c34": g.c34}


def powers_dict(p: PowerBudget) -> dict:
    return {"p1": p.p1, "p2": p.p2, "p3": p.p3, "p4": p.p4}
