"""Desk-scale composed image retrieval training stack.

A query is a (reference image, modification text) pair; the goal is to rank
the matching target image first.  Training combines three in-batch
contrastive terms: direct query-target matching, text-bridged image
alignment through a two-hop attention pivot, and text reasoning against a
twin-branch fusion of the two images.  Inference scores plain cosine
similarities between the fused query embedding and gallery image
embeddings.  Everything runs on a small hand-rolled reverse-mode autodiff
engine so every gradient is checkable against finite differences.
"""

from .config import RunConfig
from .data import SynthSpec, TripletRecord, generate
from .model import RetrievalModel, load_checkpoint, save_checkpoint
from .objective import LossBreakdown
from .tensor import Param, Tensor

__all__ = [
    "RunConfig",
    "SynthSpec",
    "TripletRecord",
    "generate",
    "RetrievalModel",
    "load_checkpoint",
    "save_checkpoint",
    "LossBreakdown",
    "Param",
    "Tensor",
]

__version__ = "0.1.0"
