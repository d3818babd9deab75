"""Weighted 2-D convolution with an optimizable rank-1 density function.

Public surface: WCT1 tensor file I/O, density vector and matrix
constructors, direct convolution operators with analytic gradients, the
three-layer denoising model and SGD trainer, a locally-biased
derivative-free box minimizer, periodic-domain identity checks, and the
desk-scale experiment pipeline behind the ``wconv`` CLI.
"""

from .conv import (KernelStack, conv2d, conv2d_transposed_weighted,
                   conv2d_weighted, flop_count, grad_input, grad_weights,
                   scale_kernel)
from .density import (DensityVector, density_from_free, density_from_record,
                      density_matrix, density_record, named_density, FAMILIES)
from .directl import DirectConfig, minimize
from .errors import (DegenerateBatchError, DivergenceError, FormatError,
                     SearchDivergedError, ShapeError)
from .experiments import (DatasetSpec, OuterResult, bench_overhead,
                          build_direct_config, compare_densities,
                          default_alpha_bounds, gen_dataset, optimize_density,
                          split_dataset, sweep_hyperparams)
from .network import (BatchNorm2d, DenoiseNet, ModelConfig, TrainReport,
                      kaiming_init, mse_loss, sgd_train)
from .spectral import (check_commutativity, check_convolution_theorem,
                       check_density_identity, check_density_identity_constant,
                       check_differentiability, check_young, circular_conv_fft,
                       circular_weighted_conv, run_verification)
from .tensors import tensor_read, tensor_write

__version__ = "0.1.0"
