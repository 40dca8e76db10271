"""cauchybench: benchmarking Cauchy-loss vs. MSE neural network training
under Gaussian noise, Cauchy noise, and simulated outliers.

The package is organized as a small numpy library:

  losses     loss functions, gradients, influence curves, MAE/RMSE
  nets       dense ReLU network, backprop, Adam, the training loop
  datagen    synthetic targets, noise samplers, corruption
  ingest     schema-driven CSV loading and one-hot encoding
  ranktests  Wilcoxon rank-sum and Kruskal-Wallis tests
  harness    cross-validated, replicated experiment runner
  report     score tables, plot series, influence CSV
  cli        command-line entry point
"""

from .datagen import (
    Dataset,
    NoiseFamily,
    NoiseSpec,
    apply_noise,
    cauchy_noise,
    cauchy_quantile,
    export_csv,
    gaussian_noise,
    inject_additive,
    inject_outliers,
    make_hc2,
    make_hc8,
    sample_inputs,
    target_y1,
    target_y2,
)
from .harness import (
    ComparisonReport,
    DatasetSpec,
    ExperimentConfig,
    ExperimentResult,
    ScoreTable,
    compare_models,
    kfold_split,
    list_presets,
    preset_document,
    run_experiment,
    run_replicate,
)
from .ingest import (
    SEOUL_BIKE_SCHEMA,
    ColumnSchema,
    IngestionError,
    Role,
    encode,
    load_csv,
    load_dataset,
    schema_from_json,
)
from .losses import (
    LossKind,
    LossSpec,
    clf_loss,
    influence,
    loss_grad,
    mae_score,
    mse_loss,
    rmse_score,
)
from .nets import (
    AdamState,
    FeatureScaler,
    NetworkConfig,
    Parameters,
    TrainConfig,
    TrainedModel,
    TrainingDiverged,
    adam_step,
    backward,
    forward,
    init_adam_state,
    init_params,
    minibatch_indices,
    predict,
    train,
    train_models,
)
from .ranktests import TestResult, chi_square_sf, kruskal_wallis, rank_with_ties, wilcoxon_rank_sum
from .report import (
    PlotSeries,
    emit_plot_series,
    format_table,
    influence_csv,
    load_results,
    save_results,
    series_to_csv,
)

__version__ = "0.1.0"
