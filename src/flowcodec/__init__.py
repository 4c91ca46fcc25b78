"""flowcodec: lossy image compression on a bijective multi-level transform.

The transform maps images to three latent levels losslessly; quality is
chosen at encode time purely through quantization step sizes, one model
serving every operating point.  Latents are entropy-coded with a range
coder under a learned factorized prior and conditional discrete
logistics, with probability-thresholded skipping.  Decoding any prefix
of the level sections yields a progressively refined image, and
re-encoding a decoded image reproduces the identical bitstream.
"""

from .codec import (
    decode_image,
    decode_latents,
    encode_image,
    inspect_bitstream,
    truncate_bitstream,
)
from .entropy import FactorizedPrior, QuantSpec
from .errors import FlowCodecError, FormatError, ModelMismatchError, NumericError
from .flow import FlowConfig, FlowModel, LatentSet
from .params import ParamStore
from .tensor import Tensor, no_grad
from .training import TrainConfig, bpp, finetune_deltas, psnr, train

__version__ = "0.1.0"

__all__ = [
    "FlowCodecError",
    "FlowConfig",
    "FlowModel",
    "FactorizedPrior",
    "FormatError",
    "LatentSet",
    "ModelMismatchError",
    "NumericError",
    "ParamStore",
    "QuantSpec",
    "Tensor",
    "TrainConfig",
    "bpp",
    "decode_image",
    "decode_latents",
    "encode_image",
    "finetune_deltas",
    "inspect_bitstream",
    "no_grad",
    "psnr",
    "train",
    "truncate_bitstream",
    "__version__",
]
