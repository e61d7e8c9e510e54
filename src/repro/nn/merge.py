"""Topology layers: channel concatenation (DenseNet) and elementwise sum
(ResNet's EWS / identity shortcut).

The *Split* of the paper — one tensor feeding several consumers — is not a
module here: in the functional executor it is an edge fan-out whose backward
is gradient accumulation, handled by the executor itself. Its memory-sweep
cost is still modelled in the graph IR (Split backward really does sweep all
incoming gradients, as the paper observes).
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ExecutionError, ShapeError
from repro.nn.module import Module


def _check_dy(name: str, dy: np.ndarray, y_shape: Tuple[int, ...]) -> None:
    if dy.shape != y_shape:
        raise ShapeError(f"{name}: dY shape {dy.shape} != Y shape {y_shape}")


class Concat(Module):
    """Concatenate NCHW tensors along channels (DenseNet's Concat layer).

    The reference framework implements this as a physical copy — which is
    why Concat shows up prominently in the paper's Figure 3 bandwidth trace.
    """

    def __init__(self, name: str = "concat"):
        super().__init__(name)
        self._splits: Optional[List[int]] = None
        self._y_shape: Optional[Tuple[int, ...]] = None

    def forward(self, xs: Sequence[np.ndarray]) -> np.ndarray:
        if len(xs) < 1:
            raise ShapeError(f"{self.name}: needs at least one input")
        base = xs[0].shape
        for x in xs[1:]:
            if x.ndim != 4 or x.shape[0] != base[0] or x.shape[2:] != base[2:]:
                raise ShapeError(
                    f"{self.name}: incompatible shapes {[x.shape for x in xs]}"
                )
        self._splits = [x.shape[1] for x in xs]
        y = np.concatenate(xs, axis=1)
        self._y_shape = y.shape
        return y

    def backward(self, dy: np.ndarray) -> List[np.ndarray]:
        if self._splits is None:
            raise ExecutionError(f"{self.name}: backward before forward")
        _check_dy(self.name, dy, self._y_shape)
        out, start = [], 0
        for c in self._splits:
            out.append(dy[:, start : start + c].copy())
            start += c
        return out


class Add(Module):
    """Elementwise sum of two or more tensors (ResNet EWS)."""

    def __init__(self, name: str = "ews"):
        super().__init__(name)
        self._n_inputs: Optional[int] = None
        self._y_shape: Optional[Tuple[int, ...]] = None

    def forward(self, xs: Sequence[np.ndarray]) -> np.ndarray:
        if len(xs) < 2:
            raise ShapeError(f"{self.name}: needs at least two inputs")
        base = xs[0].shape
        for x in xs[1:]:
            if x.shape != base:
                raise ShapeError(
                    f"{self.name}: mismatched shapes {[x.shape for x in xs]}"
                )
        self._n_inputs = len(xs)
        self._y_shape = base
        out = xs[0].copy()
        for x in xs[1:]:
            out += x
        return out

    def backward(self, dy: np.ndarray) -> List[np.ndarray]:
        if self._n_inputs is None:
            raise ExecutionError(f"{self.name}: backward before forward")
        _check_dy(self.name, dy, self._y_shape)
        # The gradient w.r.t. every addend is dY itself; copies keep callers
        # free to mutate independently.
        return [dy.copy() for _ in range(self._n_inputs)]
