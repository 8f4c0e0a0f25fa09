"""EEG branch: learnable elementwise perturbation and a linear encoder.

The perturbation is an elementwise affine map over the channel x time
grid, initialized to the identity so training starts from the raw
signal. The encoder flattens the perturbed trial and applies a single
fully connected layer; there is no activation anywhere on this branch.
Its rows are not normalized here: the loss and ``trainer.embed_split``
do that where a similarity is taken.
"""
from __future__ import annotations

import numpy as np

from .tensor import Init, Module, Tensor, linear, param


class Perturbation(Module):
    """Per-entry gain and offset over the EEG grid, identity at init."""

    def __init__(self, channels: int, timesteps: int, init: Init):
        self.gain = param(init, "perturb.gain", (channels, timesteps), fill=1.0)
        self.offset = param(init, "perturb.offset", (channels, timesteps), fill=0.0)

    def apply(self, eeg: Tensor) -> Tensor:
        return eeg * self.gain + self.offset


class LinearEncoder(Module):
    """Flatten, then one fully connected layer; linear in its input."""

    def __init__(self, channels: int, timesteps: int, dim: int, init: Init):
        self.channels = channels
        self.timesteps = timesteps
        fan_in = channels * timesteps
        self.weight = param(init, "encoder.weight", (fan_in, dim), over=np.sqrt(fan_in))
        self.bias = param(init, "encoder.bias", (dim,), fill=0.0)

    def encode(self, eeg: Tensor) -> Tensor:
        flat = eeg.reshape((eeg.shape[0], self.channels * self.timesteps))
        return linear(flat, self.weight, self.bias)
