"""Head-to-head training run: MSE vs Cauchy loss under Cauchy noise.

Trains the same 10-unit network from the same initialization on the same
corrupted sample of the two-variable surface, differing only in the loss,
then scores both on clean data. A handful of enormous Cauchy-noise spikes
is enough to drag the squared-error fit away from the surface, while the
bounded-influence loss barely notices them.

Run:  python demos/train_mse_vs_clf.py   (a few seconds)
"""

import numpy as np

from cauchybench.datagen import NoiseSpec, apply_noise, make_hc2
from cauchybench.losses import LossSpec, mae_score, rmse_score
from cauchybench.nets import NetworkConfig, TrainConfig, train_folds

train_data = make_hc2(2000, seed=0)
test = make_hc2(1000, seed=1)
noisy_y = apply_noise(train_data.y, NoiseSpec("cauchy", tau=5.0, seed=2))

biggest = np.sort(np.abs(noisy_y - train_data.y))[-5:]
print("five largest injected noise magnitudes:", np.array2string(biggest, precision=1))

net = NetworkConfig(input_dim=2, hidden_layers=(10,))
tc = TrainConfig(epochs=150, batch_size=32, learning_rate=0.001, seed=7)

print(f"\n{'loss':>10} {'train-data MAE':>15} {'clean test MAE':>15} {'clean test RMSE':>16}")
specs = (LossSpec.mse(), LossSpec.clf(1.0), LossSpec.clf(10.0))
# One loop trains all three: they share the init seed and minibatch stream.
# The one fold is every row of the noisy sample: (rows of X, targets, config).
fold = (np.arange(len(train_data)), noisy_y, tc)
for spec, model in zip(specs, train_folds(train_data.X, [fold], net, specs)[0]):
    on_train = mae_score(noisy_y, model.predict(train_data.X))
    on_test = mae_score(test.y, model.predict(test.X))
    rmse = rmse_score(test.y, model.predict(test.X))
    print(f"{spec.label:>10} {on_train:>15.3f} {on_test:>15.3f} {rmse:>16.3f}")

print("\nSame data, same seeds, same net; only the loss changed.")
