from .ops import (
    attention_params,
    cosine_sim,
    cosine_sim_node,
    finite_diff_check,
    multi_head_attention,
)
from .params import CHECKPOINT_VERSION, ParamStore, adam_step, uniform_init
from .tensor import NonFiniteError, Tensor, concat, stack

__all__ = [
    "CHECKPOINT_VERSION",
    "NonFiniteError",
    "ParamStore",
    "Tensor",
    "adam_step",
    "attention_params",
    "concat",
    "cosine_sim",
    "cosine_sim_node",
    "finite_diff_check",
    "multi_head_attention",
    "stack",
    "uniform_init",
]
