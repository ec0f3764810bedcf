"""Learned task offloading for multi-server mobile edge computing.

The package splits into a physical layer (scenarios, channels, the convex
resource allocator), a learning stack (manual-backprop networks, the channel
autoencoder, prioritized replay, the scheduling agent) and an evaluation
layer (adaptive annealing search, baselines, an exact branch-and-bound
oracle, experiment drivers).

Importing the package caps OpenBLAS and OpenMP at one thread each, unless
``OPENBLAS_NUM_THREADS`` or ``OMP_NUM_THREADS`` is already set: the arrays
here are small, and an idle BLAS worker otherwise spins on a second CPU for
the whole training loop.  The cap only takes effect when numpy has not been
imported before this package.
"""

import os

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")

from .agent import (AgentConfig, EpochLog, RunResult, SeedBundle, decide,
                    policy_loss_grads, run, train_step)
from .allocator import (Allocation, Evaluator, allocate_frequencies,
                        evaluate, max_power_assignment)
from .annealing import (AnnealConfig, BudgetState, SearchResult, adapt_budget,
                        search)
from .autoencoder import (AutoencoderConfig, ChannelCompressor, EncodedState,
                          Rasterizer, default_dims)
from .bench import (BenchReport, OracleResult, StrategyStats, exact_oracle,
                    exhaustive_best, greedy_baseline, nrr, random_baseline,
                    run_benchmark)
from .config import (ExperimentConfig, ScenarioConfig, build_scenario,
                     dump_scenario, load_config, load_scenario)
from .experiment import (bench_experiment, dynamic_experiment,
                         train_experiment)
from .mec import (ChannelState, MecSpec, OffloadDecision, RadioParams,
                  Scenario, Task, UeSpec, data_rate, local_capacity,
                  random_scenario, reweighted, sample_channel_state)
from .neural import (Adam, LayerSpec, Network, load_checkpoint, mlp_specs,
                     save_checkpoint)
from .replay import ReplayBuffer, ReplayConfig

__version__ = "0.1.0"

__all__ = [
    "Adam", "AgentConfig", "Allocation", "AnnealConfig", "AutoencoderConfig",
    "BenchReport", "BudgetState", "ChannelCompressor", "ChannelState",
    "EncodedState", "EpochLog", "Evaluator", "ExperimentConfig", "LayerSpec",
    "MecSpec", "Network", "OffloadDecision", "OracleResult", "RadioParams",
    "Rasterizer", "ReplayBuffer", "ReplayConfig", "RunResult", "Scenario",
    "ScenarioConfig", "SearchResult", "SeedBundle", "StrategyStats", "Task",
    "UeSpec", "adapt_budget", "allocate_frequencies", "bench_experiment",
    "build_scenario", "data_rate", "decide", "default_dims", "dump_scenario",
    "dynamic_experiment", "evaluate", "exact_oracle", "exhaustive_best",
    "greedy_baseline", "load_checkpoint", "load_config", "load_scenario",
    "local_capacity", "max_power_assignment", "mlp_specs", "nrr",
    "policy_loss_grads", "random_baseline", "random_scenario", "reweighted",
    "run", "run_benchmark", "sample_channel_state", "save_checkpoint",
    "search", "train_experiment", "train_step",
]
