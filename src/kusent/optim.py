"""Adam with bias correction, updating parameters in place (a read-only tensor is copied once)."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .autodiff import Parameter, _row_blocks


@dataclass
class AdamState:
    lr: float
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    step_count: int = 0
    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)

    def __post_init__(self) -> None:
        for name in ("lr", "eps"):
            if not 0.0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be finite and > 0, got {getattr(self, name)}")
        # 0 <= beta < 1 keeps each bias correction 1 - beta**t above zero
        for name in ("beta1", "beta2"):
            if not 0.0 <= getattr(self, name) < 1.0:
                raise ValueError(f"{name} must be in [0, 1), got {getattr(self, name)}")
        if self.step_count < 0:
            raise ValueError(f"step_count must be >= 0, got {self.step_count}")


def adam_step(params: list[Parameter], state: AdamState) -> None:
    """One update: theta -= lr * m_hat / (sqrt(v_hat) + eps); grads are released after.

    Runs in place through ``out=`` buffers over cache-sized blocks of rows
    (``autodiff._row_blocks``), with each gradient block doubling as scratch;
    every value equals the plain whole-array expression
    ``(lr / bc1) * m / (sqrt(v / bc2) + eps)`` bit for bit. Each gradient
    buffer is released once its update is done, so a step's next forward runs
    without them; ``p.grad`` is None until the next ``backward`` reaches ``p``.

    Every parameter given gets its two zero moments on the first step, so the
    saved optimizer state names them all; a parameter whose ``grad`` is None
    is not updated, and its data and moments stay as they are.

    A read-only or non-contiguous ``p.data`` (every tensor ``load_checkpoint``
    returns is read-only) is first replaced by a private contiguous copy, all
    in one pass before any moment is allocated, so the loaded buffer is freed
    before the moments take their place.
    """
    for p in params:
        # the blocks below must be views that write through to p.data
        if not (p.data.flags.writeable and p.data.flags.c_contiguous):
            p.data = p.data.copy()
    state.step_count += 1
    beta1, beta2 = state.beta1, state.beta2
    bc1 = 1.0 - beta1**state.step_count
    bc2 = 1.0 - beta2**state.step_count
    for p in params:
        m = state.m.get(p.name)
        if m is None:
            m = state.m[p.name] = np.zeros_like(p.data)
            state.v[p.name] = np.zeros_like(p.data)
        if p.grad is None:
            continue
        for data, g, mb, vb in _row_blocks(p.data, p.grad, m, state.v[p.name]):
            buf = np.multiply(g, 1.0 - beta1)
            mb *= beta1
            mb += buf
            np.multiply(g, g, out=g)
            g *= 1.0 - beta2
            vb *= beta2
            vb += g
            np.divide(vb, bc2, out=g)
            np.sqrt(g, out=g)
            g += state.eps
            np.multiply(mb, state.lr / bc1, out=buf)
            buf /= g
            data -= buf
        p.zero_grad()
