"""Minimal Module/Parameter machinery for the numpy substrate.

The design is deliberately explicit: each module caches exactly what its
backward pass needs and exposes it via attributes, because the fused kernels
in :mod:`repro.kernels` must be able to reproduce the same values from fewer
memory sweeps — the comparison only makes sense if the reference's
intermediate state is inspectable.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional

import numpy as np

from repro.errors import ExecutionError


class Parameter:
    """A learnable tensor: ``data`` plus an accumulated ``grad``.

    ``grad`` is allocated lazily on the first backward pass and *accumulated*
    into (like Caffe/PyTorch) so graphs where a parameter is touched several
    times per iteration stay correct.
    """

    def __init__(self, data: np.ndarray, name: str = "param"):
        self.name = name
        self.data = np.ascontiguousarray(data)
        self.grad: Optional[np.ndarray] = None

    def zero_grad(self) -> None:
        """Reset the accumulated gradient (start of an iteration)."""
        self.grad = None

    def accumulate_grad(self, g: np.ndarray) -> None:
        """Add *g* into the gradient buffer, allocating it if needed."""
        if g.shape != self.data.shape:
            raise ExecutionError(
                f"{self.name}: gradient shape {g.shape} != data shape "
                f"{self.data.shape}"
            )
        if self.grad is None:
            # C order like ``data``, whatever g's layout: astype would keep
            # a transposed g's strides (Conv2d's dW is a transposed view).
            self.grad = g.astype(self.data.dtype, order="C", copy=True)
        else:
            self.grad += g

    @property
    def shape(self):
        return self.data.shape

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Parameter({self.name}, shape={self.data.shape})"


class Module:
    """Base class for all layers.

    Subclasses implement :meth:`forward` and :meth:`backward`. ``training``
    toggles behaviours that differ between training and inference (only BN
    uses it here, which is exactly the distinction the paper exploits: BN's
    training-mode mini-batch statistics are what make it memory-bound).
    """

    def __init__(self, name: str = ""):
        self.name = name or type(self).__name__
        self.training = True
        self._modules: List["Module"] = []
        self._params: List[Parameter] = []

    # -- registration -------------------------------------------------------
    def register_parameter(self, param: Parameter) -> Parameter:
        self._params.append(param)
        return param

    def register_module(self, module: "Module") -> "Module":
        self._modules.append(module)
        return module

    # -- traversal ----------------------------------------------------------
    def parameters(self) -> Iterator[Parameter]:
        """Yield this module's parameters, then all submodules' (depth-first)."""
        yield from self._params
        for m in self._modules:
            yield from m.parameters()

    def named_parameters(self, prefix: str = "") -> Iterator[tuple]:
        base = f"{prefix}{self.name}" if prefix or self.name else ""
        for p in self._params:
            yield (f"{base}.{p.name}" if base else p.name, p)
        for m in self._modules:
            yield from m.named_parameters(prefix=f"{base}/" if base else "")

    def zero_grad(self) -> None:
        for p in self.parameters():
            p.zero_grad()

    def train(self, mode: bool = True) -> "Module":
        self.training = mode
        for m in self._modules:
            m.train(mode)
        return self

    def eval(self) -> "Module":
        return self.train(False)

    # -- numerics -------------------------------------------------------------
    def forward(self, *inputs):
        raise NotImplementedError

    def backward(self, *grads):
        raise NotImplementedError

    def __call__(self, *inputs):
        return self.forward(*inputs)

    def state_dict(self) -> Dict[str, np.ndarray]:
        """Flat name -> array snapshot of all parameters (copies)."""
        return {name: p.data.copy() for name, p in self.named_parameters()}

    def load_state_dict(self, state: Dict[str, np.ndarray]) -> None:
        """Load a snapshot produced by :meth:`state_dict` (strict)."""
        own = dict(self.named_parameters())
        missing = set(own) - set(state)
        extra = set(state) - set(own)
        if missing or extra:
            raise ExecutionError(
                f"state_dict mismatch: missing={sorted(missing)} extra={sorted(extra)}"
            )
        for name, p in own.items():
            if state[name].shape != p.data.shape:
                raise ExecutionError(
                    f"{name}: shape {state[name].shape} != {p.data.shape}"
                )
            p.data = state[name].copy()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}({self.name})"
