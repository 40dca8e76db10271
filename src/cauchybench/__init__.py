"""cauchybench: benchmarking Cauchy-loss vs. MSE neural network training
under Gaussian noise, Cauchy noise, and simulated outliers.

The package is organized as a small numpy library:

  losses     loss functions, gradients, influence curves, MAE/RMSE
  nets       dense ReLU network, backprop, Adam, the training loop
  datagen    synthetic targets, noise samplers, corruption
  ingest     schema-driven CSV loading and one-hot encoding
  ranktests  Wilcoxon rank-sum and Kruskal-Wallis tests
  harness    cross-validated, replicated experiment runner
  report     results documents, score tables, influence CSV
  cli        command-line entry point

Each name is imported from its module, e.g.
``from cauchybench.harness import run_experiment``.
"""

__version__ = "0.1.0"
