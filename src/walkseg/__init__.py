"""Random-walk label diffusion over learned sparse pixel affinities.

Per-pixel class scores are smoothed by a random walk on a sparse
pixel-similarity graph: affinities W = exp(theta . F) over per-channel
feature distances F are row-normalized into a stochastic transition
matrix A = D^-1 W, and one diffusion step is the sparse product A f.
Training back-propagates through the product analytically; inference
iterates the damped step to its closed-form limit.
"""

__version__ = "0.1.0"

from .errors import (ConvergenceError, DataFormatError, DivergenceError,
                     InvalidInputError, UnsupportedVersionError)
from .features import FilterBankConfig, extract_features, per_channel_normalize
from .graph import (SparsityPattern, TransitionMatrix, affinity_forward,
                    affinity_loss_grad, build_sparsity, channel_distances,
                    ground_truth_affinity, learned_affinity, transition)
from .solver import (SolverConfig, bench_step_vs_solve, dense_oracle_solve,
                     diffuse_to_convergence, solve, solve_closed_form)
from .synth import SceneSpec, corrupt_unaries, generate, oracle_affinity
from .training import (ModelCheckpoint, TrainConfig, UnaryParams,
                       load_checkpoint, save_checkpoint, softmax_loss_grad,
                       train, train_step, unary_forward)
from .walk import rw_backward_a, rw_backward_f, rw_forward, rw_step
