"""Finite-difference verification of analytic gradients.

The numeric side uses only forward evaluations (central differences), so it
is independent of every backward rule it checks. Requires float64
parameters; float32 rounding would drown the signal at the tolerances used.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from kusent.autodiff import Parameter, Tensor, backward


@dataclass
class GradCheckEntry:
    param: str
    index: tuple[int, ...]
    analytic: float
    numeric: float
    rel_error: float


@dataclass
class GradCheckReport:
    passed: bool
    tolerance: float
    max_rel_error: float
    worst: GradCheckEntry | None
    entries: list[GradCheckEntry] = field(default_factory=list)

    def __str__(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        where = f" at {self.worst.param}{list(self.worst.index)}" if self.worst else ""
        return (
            f"grad check {status}: max relative error {self.max_rel_error:.3e}"
            f"{where} (tolerance {self.tolerance:.1e}, {len(self.entries)} elements)"
        )


def gradients(params: list[Parameter]) -> dict[str, np.ndarray]:
    """A copy of each parameter's gradient by name; zeros for one no backward reached."""
    return {p.name: np.zeros_like(p.data) if p.grad is None else p.grad.copy() for p in params}


def grad_check(
    loss_fn: Callable[[], Tensor],
    params: list[Parameter],
    tolerance: float = 1e-4,
    h: float = 1e-3,
    max_elements_per_param: int = 25,
    seed: int = 0,
) -> GradCheckReport:
    """Compare backward() gradients against extrapolated central differences.

    ``loss_fn`` must rebuild the forward graph on every call and be
    deterministic (fix any dropout rng outside, or run eval mode). The
    numeric side needs four forward evaluations per checked element.
    """
    for p in params:
        if p.data.dtype != np.float64:
            raise ValueError(
                f"grad_check requires float64 parameters; {p.name} is {p.data.dtype}"
            )
        p.zero_grad()
    loss = loss_fn()
    backward(loss)
    analytic = gradients(params)

    rng = np.random.default_rng(seed)
    entries: list[GradCheckEntry] = []
    for p in params:
        flat_indices = np.arange(p.data.size)
        if p.data.size > max_elements_per_param:
            flat_indices = rng.choice(p.data.size, size=max_elements_per_param, replace=False)
        flat = p.data.reshape(-1)
        for fi in sorted(int(i) for i in flat_indices):
            orig = flat[fi]

            def delta(step):
                flat[fi] = orig + step
                f_plus = float(loss_fn().data)
                flat[fi] = orig - step
                f_minus = float(loss_fn().data)
                flat[fi] = orig
                return (f_plus - f_minus) / (2.0 * step)

            # Richardson-extrapolated central difference: cancels the h^2
            # truncation term, so h can stay large enough to sit above
            # float64 rounding noise on near-zero gradients.
            numeric = (4.0 * delta(h / 2) - delta(h)) / 3.0
            ana = float(analytic[p.name].reshape(-1)[fi])
            rel = abs(ana - numeric) / max(1e-8, abs(ana) + abs(numeric))
            entries.append(
                GradCheckEntry(
                    param=p.name,
                    index=np.unravel_index(fi, p.data.shape),
                    analytic=ana,
                    numeric=numeric,
                    rel_error=rel,
                )
            )
    worst = max(entries, key=lambda e: e.rel_error, default=None)
    max_rel = worst.rel_error if worst else 0.0
    return GradCheckReport(
        passed=max_rel < tolerance,
        tolerance=tolerance,
        max_rel_error=max_rel,
        worst=worst,
        entries=entries,
    )
