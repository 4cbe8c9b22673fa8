"""One-hidden-layer Bayesian neural network regression potential.

Parameters are a single flat vector (first-layer weights and biases, output
weights, output bias) so the ensemble samplers can treat a network as one
particle.  One layer pass serves the outputs, the potential and its gradient,
in a (K, h, B) layout (particles x hidden units x batch rows).  The first
layer is the augmented matrix [w1 | b1] in both directions: forward is one
GEMM of the whole particle stack, [w1 | b1] as (K*h, p+1), with [x | 1]^T,
whose result the ReLU overwrites in place, and backward is one batched
matmul of the 0/1 ReLU gate with [r * x | r] for the residual r, scaled by
the output weights; the gate is written over the activations once the
output-weight gradient has read them.  Both GEMM operands built here are
C-contiguous copies, [x | 1]^T as (p+1, B) and [r * x | r] as (K, B, p+1):
OpenBLAS picks its kernel by layout, and a transposed view of [r * x | r]
changed the gradient bits in 53 of 100 random shapes, so their layout is
part of the bitwise contract.
Minibatch gradients rescale the batch term by N / |batch|.  Targets are
standardized for sampling and predictions are mapped back to original units.
"""

from __future__ import annotations

import csv
import os
import warnings
from dataclasses import dataclass

import numpy as np

from .autodiff import LOG_2PI
from .targets import TargetModel

_PREDICT_BLOCK = 64  # particles per forward pass in predict; bounds its (block, h, B) tensor
TRAIN_FRACTION = 0.9  # the share of rows in the training split; the rest are test rows


@dataclass
class RegressionDataset:
    """Standardized train/test split of a numeric regression table."""

    features_train: np.ndarray
    targets_train: np.ndarray
    features_test: np.ndarray
    targets_test: np.ndarray
    target_mean: float
    target_std: float
    split_seed: int
    name: str = "dataset"

    @property
    def n_train(self) -> int:
        return self.features_train.shape[0]

    @property
    def n_features(self) -> int:
        return self.features_train.shape[1]

    def destandardize_targets(self, y_std: np.ndarray) -> np.ndarray:
        return y_std * self.target_std + self.target_mean


def load_arrays(
    features: np.ndarray,
    targets: np.ndarray,
    seed: int = 0,
    name: str = "dataset",
) -> RegressionDataset:
    """Standardize and split in-memory arrays (training stats only); errors
    number rows from 0 and columns by feature index, the target last."""
    features = np.asarray(features, dtype=float)
    table = np.hstack([features, np.asarray(targets, dtype=float).reshape(-1, 1)])
    columns = [*range(features.shape[1]), "target"]
    return _split(table, -1, columns, 0, seed, name)


def _split(table, t_idx, columns, first_row, seed, name) -> RegressionDataset:
    """Check a numeric table and split it at column ``t_idx``; errors name its
    columns by ``columns`` and number its rows from ``first_row``."""
    n = table.shape[0]
    if n < 20:
        raise ValueError(f"need at least 20 data rows, got {n}")
    bad = np.argwhere(~np.isfinite(table))
    if len(bad):
        r, c = bad[0]
        raise ValueError(
            f"non-finite cell at row {first_row + r}, column {columns[c]!r}: {table[r, c]}"
        )
    targets = table[:, t_idx]
    features = np.delete(table, t_idx, axis=1)

    rng = np.random.default_rng(seed)
    order = rng.permutation(n)
    n_train = int(round(TRAIN_FRACTION * n))
    train_idx, test_idx = order[:n_train], order[n_train:]

    x_train, x_test = features[train_idx], features[test_idx]
    y_train, y_test = targets[train_idx], targets[test_idx]

    f_std = x_train.std(axis=0, ddof=0)
    keep = f_std > 0
    if not keep.any():
        raise ValueError(f"no feature column varies over the {n_train} training rows")
    if not keep.all():
        dropped = np.flatnonzero(~keep)
        warnings.warn(f"dropping zero-variance feature columns {dropped.tolist()}")
        x_train, x_test = x_train[:, keep], x_test[:, keep]
        f_std = f_std[keep]
    f_mean = x_train.mean(axis=0)

    t_mean = float(y_train.mean())
    t_std = float(y_train.std(ddof=0))
    if t_std == 0:
        raise ValueError("target column has zero variance")

    return RegressionDataset(
        features_train=(x_train - f_mean) / f_std,
        targets_train=(y_train - t_mean) / t_std,
        features_test=(x_test - f_mean) / f_std,
        targets_test=(y_test - t_mean) / t_std,
        target_mean=t_mean,
        target_std=t_std,
        split_seed=seed,
        name=name,
    )


def load_csv(
    path,
    target_column: str,
    seed: int = 0,
) -> RegressionDataset:
    """Parse a numeric CSV with a header row into a standardized split; errors
    number rows as file lines (the header is row 1) and name header columns."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if not header:
            raise ValueError("missing header row")
        repeated = [name for c, name in enumerate(header) if name in header[:c]]
        if repeated:
            raise ValueError(f"header repeats column {repeated[0]!r}")
        if target_column not in header:
            raise ValueError(f"target column {target_column!r} not in header {header}")
        rows = []
        for r, row in enumerate(reader, start=2):
            if len(row) != len(header):
                raise ValueError(f"row {r} has {len(row)} cells, the header has {len(header)}")
            vals = []
            for c, cell in enumerate(row):
                try:
                    vals.append(float(cell))
                except ValueError:
                    raise ValueError(
                        f"non-numeric cell at row {r}, column {header[c]!r}: {cell!r}"
                    ) from None
            rows.append(vals)
    table = np.array(rows, dtype=float).reshape(len(rows), len(header))
    name = os.path.splitext(os.path.basename(str(path)))[0]
    return _split(table, header.index(target_column), header, 2, seed, name)


@dataclass
class BnnPotential:
    """Gaussian-prior ReLU network potential on standardized targets."""

    input_dim: int
    hidden_dim: int = 50
    prior_std: float = 1.0
    noise_std: float = 0.5

    def __post_init__(self):
        for name in ("input_dim", "hidden_dim"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        for name in ("prior_std", "noise_std"):
            if not 0 < getattr(self, name) < np.inf:
                raise ValueError(f"{name} must be finite and > 0, got {getattr(self, name)}")

    @property
    def n_params(self) -> int:
        return self.hidden_dim * (self.input_dim + 1) + self.hidden_dim + 1

    def unpack(self, theta: np.ndarray):
        h, p = self.hidden_dim, self.input_dim
        theta = np.asarray(theta, dtype=float)
        if theta.shape[-1] != self.n_params:
            raise ValueError(f"expected {self.n_params} parameters, got {theta.shape[-1]}")
        i = 0
        w1 = theta[..., i : i + h * p].reshape(*theta.shape[:-1], h, p)
        i += h * p
        b1 = theta[..., i : i + h]
        i += h
        w2 = theta[..., i : i + h]
        i += h
        b2 = theta[..., i]
        return w1, b1, w2, b2

    def init_std(self) -> np.ndarray:
        """Per-coordinate std of the initial draws: fan-in-scaled first layer,
        prior scale elsewhere."""
        h, p = self.hidden_dim, self.input_dim
        fan_in = np.full(h * p + h, 1.0 / np.sqrt(p))
        return np.concatenate([fan_in, np.full(h, 1.0 / np.sqrt(h)), [1.0]])

    @np.errstate(over="ignore", invalid="ignore")  # callers check finiteness
    def _layers(self, theta: np.ndarray, x: np.ndarray):
        """The one layer pass for (K, P) theta: the transposed augmented
        inputs [x | 1]^T as a C-contiguous (p+1, B) array, whatever the
        layout of x, hidden activations (K, h, B) and outputs (K, B)."""
        w1, b1, w2, b2 = self.unpack(theta)
        k, h, p = theta.shape[0], self.hidden_dim, self.input_dim
        x_aug_t = np.ones((p + 1, x.shape[0]))
        x_aug_t[:p] = x.T
        w_aug = np.concatenate([w1, b1[..., None]], axis=-1).reshape(k * h, p + 1)
        act = (w_aug @ x_aug_t).reshape(k, h, -1)
        np.maximum(act, 0.0, out=act)
        return x_aug_t, act, (w2[:, None, :] @ act)[:, 0] + b2[:, None]

    def forward(self, theta: np.ndarray, x: np.ndarray) -> np.ndarray:
        """Network outputs; theta (K, P) or (P,), x (B, p).  Returns (K, B) or (B,)."""
        out = self._layers(np.atleast_2d(theta), x)[2]
        return out[0] if np.ndim(theta) == 1 else out

    def potential(self, theta: np.ndarray, x: np.ndarray, y: np.ndarray, n_total: int):
        """Negative log posterior up to constants; theta (K, P) or (P,) gives
        (K,) values or one float."""
        theta = np.asarray(theta, dtype=float)
        scale = n_total / x.shape[0]
        data = 0.5 * scale * np.sum((self.forward(theta, x) - y) ** 2, axis=-1) / self.noise_std**2
        return 0.5 * np.sum(theta * theta, axis=-1) / self.prior_std**2 + data

    @np.errstate(over="ignore", invalid="ignore")  # callers check finiteness
    def potential_grad(
        self, theta: np.ndarray, x: np.ndarray, y: np.ndarray, n_total: int
    ) -> np.ndarray:
        """Gradient of the potential; theta (K, P) or (P,), batch (x, y).

        Manual backprop: residual r -> output layer -> ReLU gate -> first
        layer, scaled by N/|batch| and the noise precision, plus the Gaussian
        prior term theta / prior_std^2.  The output weight w2 is a factor of
        every row's first-layer gradient, so [g_w1 | g_b1] is
        (gate @ [r * x | r]) * w2 with the 0/1 gate of the ReLU (0 at 0 and
        at NaN), written over the activations once g_w2 has read them.
        """
        single = np.ndim(theta) == 1
        theta = np.atleast_2d(np.asarray(theta, dtype=float))
        w2 = self.unpack(theta)[2]
        x_aug_t, act, out = self._layers(theta, x)

        scale = n_total / x.shape[0] / self.noise_std**2
        resid = scale * (out - y[None, :])  # (K, B)

        g_w2 = (act @ resid[:, :, None])[..., 0]
        gate = np.greater(act, 0.0, out=act)  # (K, h, B), 0.0/1.0 over the activations
        rx = (resid[:, None, :] * x_aug_t).transpose(0, 2, 1).copy()  # (K, B, p+1), C order
        g_first = (gate @ rx) * w2[:, :, None]  # (K, h, p+1)
        g_b2 = resid.sum(axis=1)

        k, p = theta.shape[0], self.input_dim
        grad = np.concatenate(
            [g_first[..., :p].reshape(k, -1), g_first[..., p], g_w2, g_b2[:, None]], axis=1
        )
        grad += theta / self.prior_std**2
        return grad[0] if single else grad


def minibatch_target(
    potential: BnnPotential, dataset: RegressionDataset, batch_size: int
) -> TargetModel:
    """Sampler-facing target: the score is the negative minibatch potential
    gradient.  The batch starts as the first ``batch_size`` training rows;
    ``resample_batch(rng)`` draws a fresh one without replacement.  The
    functions take ``theta`` alone, as the gradient has no tape form."""
    x, y, n_train = dataset.features_train, dataset.targets_train, dataset.n_train
    size = min(batch_size, n_train)
    batch = np.arange(size)

    def resample_batch(rng: np.random.Generator) -> None:
        nonlocal batch
        batch = rng.choice(n_train, size=size, replace=False)

    def log_density(theta):
        return -potential.potential(np.atleast_2d(theta), x[batch], y[batch], n_train)

    def grad_log_density(theta):
        return -potential.potential_grad(theta, x[batch], y[batch], n_train)

    return TargetModel(f"bnn-{dataset.name}", potential.n_params, log_density,
                       grad_log_density, resample_batch=resample_batch)


def predict(
    potential: BnnPotential,
    particles: np.ndarray,
    dataset: RegressionDataset,
    x_std: np.ndarray,
):
    """Equal-weight Gaussian-mixture predictive over parameter particles.

    Returns (mean, std, per_point_log_likelihood callable) in ORIGINAL target
    units; the log likelihood of observed values uses a log-sum-exp over the
    mixture components.
    """
    particles = np.atleast_2d(np.asarray(particles, dtype=float))
    preds_std = np.concatenate([potential.forward(particles[i:i + _PREDICT_BLOCK], x_std)
                                for i in range(0, len(particles), _PREDICT_BLOCK)])  # (K, B)
    preds = dataset.destandardize_targets(preds_std)
    comp_std = potential.noise_std * dataset.target_std

    mean = preds.mean(axis=0)
    std = np.sqrt(comp_std**2 + preds.var(axis=0))

    def log_likelihood(y_original: np.ndarray) -> np.ndarray:
        y = np.asarray(y_original, dtype=float)
        z = (y[None, :] - preds) / comp_std
        logs = -0.5 * z * z - np.log(comp_std) - 0.5 * LOG_2PI
        m = logs.max(axis=0)
        return m + np.log(np.mean(np.exp(logs - m), axis=0))

    return mean, std, log_likelihood


def evaluate(
    potential: BnnPotential, particles: np.ndarray, dataset: RegressionDataset
) -> dict:
    """Test RMSE and average per-point log likelihood in original units."""
    mean, _, loglik = predict(potential, particles, dataset, dataset.features_test)
    y_true = dataset.destandardize_targets(dataset.targets_test)
    rmse = float(np.sqrt(np.mean((mean - y_true) ** 2)))
    ll = float(np.mean(loglik(y_true)))
    return {"rmse": rmse, "test_ll": ll}
