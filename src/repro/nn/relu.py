"""ReLU with the mask-from-output backward trick the fused kernels rely on.

The backward mask is derived from the *output* (``y > 0``) rather than the
input. For plain ReLU the two are equivalent, but the output formulation is
what makes RCF (ReLU-CONV Fusion) possible: the following CONV layer already
reads the ReLU output as its own input, so its backward-weights pass can
recover the mask for free — no extra sweep of the ReLU input is needed.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.errors import ExecutionError, ShapeError
from repro.nn.module import Module


class ReLU(Module):
    """Elementwise ``max(x, 0)``."""

    def __init__(self, name: str = "relu"):
        super().__init__(name)
        self._y: Optional[np.ndarray] = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        y = np.maximum(x, 0)
        self._y = y
        return y

    def backward(self, dy: np.ndarray) -> np.ndarray:
        if self._y is None:
            raise ExecutionError(f"{self.name}: backward before forward")
        if dy.shape != self._y.shape:
            raise ShapeError(f"{self.name}: dY shape {dy.shape} != Y shape {self._y.shape}")
        return dy * (self._y > 0)

    def release(self) -> None:
        self._y = None
