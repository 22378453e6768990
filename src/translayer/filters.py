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
from .types import MAX_FILTERS, Config, FilterBank, PatchShape, as_2d

DAE_MINIBATCH = 256  # patches per autoencoder gradient step
# Largest relative rise from the first epoch's loss to the last that is not
# divergence: a flat loss moves a fraction of a percent as the corruption
# mask is redrawn every epoch, and a diverging one grows many-fold.
DAE_END_RISE = 0.01


class TrainingDivergedError(RuntimeError):
    """Autoencoder loss became non-finite or rose by more than DAE_END_RISE."""


def draw_patch_locations(sources: int, size: tuple[int, int], shape: PatchShape,
                         m: int, gen: np.random.Generator) -> np.ndarray:
    """Draw m (source, row, col) triples uniformly over all valid positions
    of ``sources`` sources of one ``(h, w)`` size."""
    if m < 1:
        raise ValueError("need at least one patch")
    h, w = size
    if h < shape.k1 or w < shape.k2:
        raise ValueError("source smaller than the patch shape")
    rows, cols = h - shape.k1 + 1, w - shape.k2 + 1
    flat = gen.integers(0, sources * rows * cols, size=m)
    src, local = np.divmod(flat, rows * cols)
    return np.stack([src, local // cols, local % cols], axis=1)


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


def common_size(sources) -> tuple[int, int]:
    """The (h, w) shared by every image or map of a nonempty sequence."""
    sizes = {as_2d(source).shape for source in sources}
    if len(sizes) != 1:
        raise ValueError(f"images differ in size: {sorted(sizes)}")
    return sizes.pop()


def sample_patches(sources, shape: PatchShape, m: int,
                   gen: np.random.Generator) -> np.ndarray:
    """Sample m random patches from a sequence of images or maps of one
    size."""
    arrays = [as_2d(s) for s in sources]
    locations = draw_patch_locations(len(arrays), common_size(arrays), shape,
                                     m, gen)
    return gather_patches(lambda i: arrays[i], locations, shape)


def learn_pca_filters(z: np.ndarray, shape: PatchShape, count: int) -> FilterBank:
    """Top-``count`` eigenvectors of Z Z^T as orthonormal filter rows."""
    if not 1 <= count <= shape.dim:
        raise ValueError("filter count must lie in 1..k1*k2")
    scatter = z @ z.T
    eigvals, eigvecs = jacobi_eigh(scatter)
    weights = eigvecs[:, :count].T.copy()
    return FilterBank(shape=shape, weights=weights, spectrum=eigvals)


def dae_forward(w, b, b_dec, z_corrupt):
    hidden = np.tanh(w @ z_corrupt + b[:, None])
    recon = np.tanh(w.T @ hidden + b_dec[:, None])
    return hidden, recon


def dae_value_and_grad(w, b, b_dec, z_clean, z_corrupt, tradeoff_c,
                       reg_scale=1.0):
    """Reconstruction objective C * ||Z - recon||_F^2 + reg_scale * ||W||_F^2
    and its analytic gradients w.r.t. (W, b, b'), from one forward pass.

    Returns ``(objective, grad_w, grad_b, grad_b_dec)``.
    """
    hidden, recon = dae_forward(w, b, b_dec, z_corrupt)
    err = recon - z_clean
    objective = (tradeoff_c * float(np.sum(err * err))
                 + reg_scale * float(np.sum(w * w)))
    g_dec = 2.0 * tradeoff_c * err * (1.0 - recon * recon)     # (d, n)
    g_hid = (w @ g_dec) * (1.0 - hidden * hidden)              # (L, n)
    grad_w = g_hid @ z_corrupt.T + hidden @ g_dec.T + 2.0 * reg_scale * w
    grad_b = g_hid.sum(axis=1)
    grad_b_dec = g_dec.sum(axis=1)
    return objective, grad_w, grad_b, grad_b_dec


def train_dae(z_clean: np.ndarray, count: int, cfg: Config, rng: Rng,
              on_epoch=None):
    """Minibatch SGD on the corrupted-reconstruction objective.

    The ``dae_*`` fields of ``cfg`` set the corruption rate, epoch count,
    learning rate and tradeoff; ``rng`` seeds the init, corruption and
    order streams. Updates use the per-sample mean of the batch gradient
    (learning rate is batch-size independent), decaying as lr/sqrt(epoch);
    the corruption mask is an independent Bernoulli zeroing per entry,
    resampled every epoch. Each epoch gathers the clean and corrupted
    patches once in its shuffled order, and each minibatch is a column
    slice of those copies. Returns ``(w, b, b_dec, stats)`` where
    ``stats["loss"]`` holds the running loss of each epoch.

    ``on_epoch(w, b, b_dec)``, if given, is called after each epoch that
    passes the divergence check. The arrays are the live parameters,
    which later epochs update in place: copy what must be kept.
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
    for epoch in range(1, cfg.dae_epochs + 1):
        lr = cfg.dae_lr / np.sqrt(epoch)
        keep = None
        if cfg.dae_corruption > 0.0:
            keep = corrupt_gen.random((d, m)) >= cfg.dae_corruption
        order = order_gen.permutation(m)
        zp = z_clean[:, order]
        # entry (i, j) is z_clean[i, order[j]] * keep[i, order[j]], as a
        # gather of the corrupted matrix would give
        ztp = zp if keep is None else zp * keep[:, order]
        running = 0.0
        for start in range(0, m, DAE_MINIBATCH):
            zb = zp[:, start:start + DAE_MINIBATCH]
            ztb = ztp[:, start:start + DAE_MINIBATCH]
            size = zb.shape[1]
            loss, gw, gb, gbp = dae_value_and_grad(w, b, b_dec, zb, ztb,
                                                   tradeoff_c, size / m)
            running += loss
            step = lr / size
            w -= step * gw
            b -= step * gb
            b_dec -= step * gbp
        if not np.isfinite(running) or not np.isfinite(w).all():
            raise TrainingDivergedError(
                f"non-finite loss at epoch {epoch}; lower the learning rate")
        epoch_loss.append(running)
        if on_epoch is not None:
            on_epoch(w, b, b_dec)

    if epoch_loss[-1] > epoch_loss[0] * (1.0 + DAE_END_RISE):
        raise TrainingDivergedError(
            f"training loss rose from {epoch_loss[0]:.6g} to {epoch_loss[-1]:.6g}")
    return w, b, b_dec, {"loss": epoch_loss}


def learn_dae_filters(z: np.ndarray, shape: PatchShape, count: int,
                      cfg: Config, rng: Rng) -> FilterBank:
    """Train the autoencoder and return encoder weights and biases.

    The decoder bias is fitted but dropped from the bank; only the encoder
    side is used for feature mapping.
    """
    if not 1 <= count <= MAX_FILTERS:
        raise ValueError(f"filter count must lie in 1..{MAX_FILTERS}")
    w, b, _, _ = train_dae(z, count, cfg, rng)
    return FilterBank(shape=shape, weights=w, biases=b)
