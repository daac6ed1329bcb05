"""Adam with bias correction, updating parameters in place."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .autodiff import Parameter


@dataclass
class AdamState:
    lr: float
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    step_count: int = 0
    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)


def adam_step(params: list[Parameter], state: AdamState) -> None:
    """One update: theta -= lr * m_hat / (sqrt(v_hat) + eps); grads are zeroed after.

    Runs in place through ``out=`` buffers, with the gradient array doubling
    as scratch before it is zeroed; every value equals the plain expression
    ``(lr / bc1) * m / (sqrt(v / bc2) + eps)`` bit for bit.
    """
    state.step_count += 1
    bc1 = 1.0 - state.beta1**state.step_count
    bc2 = 1.0 - state.beta2**state.step_count
    for p in params:
        g = p.grad
        m = state.m.get(p.name)
        if m is None:
            m = state.m[p.name] = np.zeros_like(p.data)
            state.v[p.name] = np.zeros_like(p.data)
        v = state.v[p.name]
        buf = np.multiply(g, 1.0 - state.beta1)
        m *= state.beta1
        m += buf
        np.multiply(g, g, out=g)
        g *= 1.0 - state.beta2
        v *= state.beta2
        v += g
        np.divide(v, bc2, out=g)
        np.sqrt(g, out=g)
        g += state.eps
        np.multiply(m, state.lr / bc1, out=buf)
        buf /= g
        p.data -= buf
        p.zero_grad()
