import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from trafficmoe import tensor as T
from trafficmoe.model import ModelConfig, TrafficModel
from trafficmoe.tensor import RowGrad


def tiny_config(**overrides) -> ModelConfig:
    base = dict(
        n_layers=2,
        d_model=16,
        n_heads=2,
        n_experts=4,
        top_k=2,
        ffn_hidden=32,
        vocab_size=64,
        max_tokens=12,
        num_classes=2,
    )
    base.update(overrides)
    return ModelConfig(**base)


def lm_logits(model: TrafficModel, ids, valid_mask=None):
    """Next-token logits [packed rows, vocab]: the ``hidden`` states times the vocab head, plus the routing list."""
    h, routing = model.forward(ids, valid_mask, mode="hidden")
    return T.matmul(h, model.params["head.vocab"]), routing


def load_perfbench(name: str):
    """Module ``perfbench/<name>.py``, loaded from its file as the benchmark runs it."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", Path(__file__).parents[1] / "perfbench" /
                                                  f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def grad_array(t):
    """``t.grad`` as an array: a ``RowGrad`` densified, None kept."""
    return t.grad.dense() if isinstance(t.grad, RowGrad) else t.grad


@pytest.fixture
def tiny_model() -> TrafficModel:
    return TrafficModel(tiny_config(), seed=0)


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(0)
