"""Filter bank learning from random patches.

Two learners share the same preprocessed (k1*k2, m) patch matrix: a
principal component bank (top eigenvectors of Z Z^T, orthonormal rows) and
a tied-weight tanh autoencoder trained on corrupted patches by minibatch
stochastic gradient descent, with the ``dae_*`` settings of the
:class:`Config`. Patch sampling is uniform over every (source, top-left
offset) pair and fully determined by the seed.
"""

from __future__ import annotations

import numpy as np

from .linalg import jacobi_eigh
from .rng import Rng
from .types import DAE, MAX_FILTERS, PCA, Config, FilterBank, PatchShape, as_2d

DAE_MINIBATCH = 256  # patches per autoencoder gradient step


class TrainingDivergedError(RuntimeError):
    """Autoencoder loss became non-finite or ended above its starting value."""


def offsets_in(source_hw: tuple[int, int], shape: PatchShape) -> int:
    h, w = source_hw
    if h < shape.k1 or w < shape.k2:
        raise ValueError("source smaller than the patch shape")
    return (h - shape.k1 + 1) * (w - shape.k2 + 1)


def draw_patch_locations(source_sizes, shape: PatchShape, m: int,
                         gen: np.random.Generator) -> np.ndarray:
    """Draw m (source, row, col) triples uniformly over all valid positions."""
    if m < 1:
        raise ValueError("need at least one patch")
    counts = np.array([offsets_in(hw, shape) for hw in source_sizes], dtype=np.int64)
    bounds = np.cumsum(counts)
    total = int(bounds[-1])
    flat = gen.integers(0, total, size=m)
    src = np.searchsorted(bounds, flat, side="right")
    local = flat - (bounds[src] - counts[src])
    widths = np.array([hw[1] - shape.k2 + 1 for hw in source_sizes], dtype=np.int64)
    rows = local // widths[src]
    cols = local % widths[src]
    return np.stack([src, rows, cols], axis=1)


def gather_patches(fetch, locations: np.ndarray, shape: PatchShape) -> np.ndarray:
    """Extract row-major flattened patches at previously drawn locations.

    ``fetch(source_index)`` returns the 2-D array for a source; it is called
    once per distinct source, in ascending order, regardless of draw order.
    """
    m = locations.shape[0]
    data = np.empty((shape.dim, m), dtype=np.float64)
    order = np.argsort(locations[:, 0], kind="stable")
    current, arr = -1, None
    for pos in order:
        src, r, c = (int(x) for x in locations[pos])
        if src != current:
            arr = as_2d(fetch(src))
            current = src
        data[:, pos] = arr[r:r + shape.k1, c:c + shape.k2].ravel()
    return data


def sample_patches(sources, shape: PatchShape, m: int,
                   gen: np.random.Generator) -> np.ndarray:
    """Sample m random patches from a sequence of images or maps."""
    arrays = [as_2d(s) for s in sources]
    locations = draw_patch_locations([a.shape for a in arrays], shape, m, gen)
    return gather_patches(lambda i: arrays[i], locations, shape)


def learn_pca_filters(z: np.ndarray, shape: PatchShape, count: int) -> FilterBank:
    """Top-``count`` eigenvectors of Z Z^T as orthonormal filter rows."""
    if not 1 <= count <= shape.dim:
        raise ValueError("filter count must lie in 1..k1*k2")
    scatter = z @ z.T
    eigvals, eigvecs = jacobi_eigh(scatter)
    weights = eigvecs[:, :count].T.copy()
    return FilterBank(layer_kind=PCA, shape=shape, weights=weights,
                      spectrum=eigvals)


def dae_forward(w, b, b_dec, z_corrupt):
    hidden = np.tanh(w @ z_corrupt + b[:, None])
    recon = np.tanh(w.T @ hidden + b_dec[:, None])
    return hidden, recon


def dae_objective(w, b, b_dec, z_clean, z_corrupt, tradeoff_c, reg_scale=1.0):
    """Reconstruction objective: C * ||Z - recon||_F^2 + ||W||_F^2."""
    _, recon = dae_forward(w, b, b_dec, z_corrupt)
    err = recon - z_clean
    return tradeoff_c * float(np.sum(err * err)) + reg_scale * float(np.sum(w * w))


def dae_gradients(w, b, b_dec, z_clean, z_corrupt, tradeoff_c, reg_scale=1.0):
    """Analytic gradients of :func:`dae_objective` w.r.t. (W, b, b')."""
    hidden, recon = dae_forward(w, b, b_dec, z_corrupt)
    err = recon - z_clean
    g_dec = 2.0 * tradeoff_c * err * (1.0 - recon * recon)     # (d, n)
    g_hid = (w @ g_dec) * (1.0 - hidden * hidden)              # (L, n)
    grad_w = g_hid @ z_corrupt.T + hidden @ g_dec.T + 2.0 * reg_scale * w
    grad_b = g_hid.sum(axis=1)
    grad_b_dec = g_dec.sum(axis=1)
    return grad_w, grad_b, grad_b_dec


def train_dae(z_clean: np.ndarray, count: int, cfg: Config, rng: Rng):
    """Minibatch SGD on the corrupted-reconstruction objective.

    The ``dae_*`` fields of ``cfg`` set the corruption rate, epoch count,
    learning rate and tradeoff; ``rng`` seeds the init, corruption and
    order streams. Updates use the per-sample mean of the batch gradient
    (learning rate is batch-size independent), decaying as lr/sqrt(epoch);
    the corruption mask is an independent Bernoulli zeroing per entry,
    resampled every epoch. Returns ``(w, b, b_dec, stats)`` where stats holds the per-epoch
    running loss and the clean-input reconstruction MSE after each epoch.
    """
    d, m = z_clean.shape
    init_gen = rng.stream("dae.init")
    corrupt_gen = rng.stream("dae.corrupt")
    order_gen = rng.stream("dae.order")
    tradeoff_c = cfg.dae_tradeoff_c

    bound = 1.0 / np.sqrt(d)
    w = init_gen.uniform(-bound, bound, size=(count, d))
    b = np.zeros(count)
    b_dec = np.zeros(d)

    epoch_loss = []
    epoch_mse = []
    for epoch in range(1, cfg.dae_epochs + 1):
        lr = cfg.dae_lr / np.sqrt(epoch)
        if cfg.dae_corruption > 0.0:
            keep = corrupt_gen.random((d, m)) >= cfg.dae_corruption
            z_corrupt = z_clean * keep
        else:
            z_corrupt = z_clean
        order = order_gen.permutation(m)
        running = 0.0
        for start in range(0, m, DAE_MINIBATCH):
            batch = order[start:start + DAE_MINIBATCH]
            zb = z_clean[:, batch]
            ztb = z_corrupt[:, batch]
            scale = batch.size / m
            running += dae_objective(w, b, b_dec, zb, ztb, tradeoff_c, scale)
            gw, gb, gbp = dae_gradients(w, b, b_dec, zb, ztb, tradeoff_c, scale)
            step = lr / batch.size
            w -= step * gw
            b -= step * gb
            b_dec -= step * gbp
        if not np.isfinite(running) or not np.isfinite(w).all():
            raise TrainingDivergedError(
                f"non-finite loss at epoch {epoch}; lower the learning rate")
        epoch_loss.append(running)
        _, recon = dae_forward(w, b, b_dec, z_clean)
        epoch_mse.append(float(np.mean((recon - z_clean) ** 2)))

    # slack absorbs summation-order noise when the loss is exactly flat
    if epoch_loss[-1] > epoch_loss[0] + 1e-9 * max(1.0, abs(epoch_loss[0])):
        raise TrainingDivergedError("training loss ended above its initial value")
    return w, b, b_dec, {"loss": epoch_loss, "recon_mse": epoch_mse}


def learn_dae_filters(z: np.ndarray, shape: PatchShape, count: int,
                      cfg: Config, rng: Rng) -> FilterBank:
    """Train the autoencoder and return encoder weights and biases.

    The decoder bias is fitted but dropped from the bank; only the encoder
    side is used for feature mapping.
    """
    if not 1 <= count <= MAX_FILTERS:
        raise ValueError(f"filter count must lie in 1..{MAX_FILTERS}")
    w, b, _, _ = train_dae(z, count, cfg, rng)
    return FilterBank(layer_kind=DAE, shape=shape, weights=w, biases=b)
