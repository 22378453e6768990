"""Filter bank learning from random patches.

Patches are drawn into an (m, k1*k2) matrix, one patch per row, the layout
``pipeline.window_rows`` gives extraction, and both learners take the
preprocessed matrix Z as it is: a principal component bank (top
eigenvectors of Z^T Z, orthonormal rows) and a tied-weight tanh
autoencoder trained on corrupted patches by minibatch stochastic gradient
descent, with the ``dae_*`` settings of the :class:`Config`. Patch
sampling is uniform over every (source, top-left offset) pair and fully
determined by the seed.

The autoencoder's corruption masks depend on the seed and the epoch
alone, not on the weights, so they are drawn over
``forkpool.fork_pool(jobs, ...)``, one epoch per task, while the parent
runs the gradient steps: with feature extraction, the SVM's classes and
the WPCA column blocks, the fourth fan-out of training.
"""

from __future__ import annotations

import numpy as np

from .forkpool import fork_pool
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
    """Extract row-major flattened patches at previously drawn locations,
    one per row.

    ``fetch(source_index)`` returns the 2-D array for a source; it is called
    once per distinct source, in ascending order, regardless of draw order.
    Each source's patches are one fancy-index copy of its pixels.
    """
    m = locations.shape[0]
    data = np.empty((m, shape.dim), dtype=np.float64)
    order = np.argsort(locations[:, 0], kind="stable")
    src, r, c = locations[order].T
    # pixel (i, j) of patch p sits at row rows[p, i, 0], column cols[p, 0, j]
    rows = r[:, None, None] + np.arange(shape.k1)[:, None]
    cols = c[:, None, None] + np.arange(shape.k2)
    cuts = [0, *(np.flatnonzero(np.diff(src)) + 1).tolist(), m]
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        patches = as_2d(fetch(int(src[lo])))[rows[lo:hi], cols[lo:hi]]
        data[order[lo:hi]] = patches.reshape(hi - lo, shape.dim)
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
    """Top-``count`` eigenvectors of Z^T Z as orthonormal filter rows."""
    if not 1 <= count <= shape.dim:
        raise ValueError("filter count must lie in 1..k1*k2")
    scatter = z.T @ z
    eigvals, eigvecs = jacobi_eigh(scatter)
    weights = eigvecs[:, :count].T.copy()
    return FilterBank(shape=shape, weights=weights, spectrum=eigvals)


def dae_forward(w, b, b_dec, z_corrupt):
    """Hidden codes and reconstructions of the patch rows of ``z_corrupt``
    (n, d), as new (n, L) and (n, d) arrays."""
    hidden = z_corrupt @ w.T
    hidden += b
    np.tanh(hidden, out=hidden)
    recon = hidden @ w
    recon += b_dec
    np.tanh(recon, out=recon)
    return hidden, recon


def dae_value_and_grad(w, b, b_dec, z_clean, z_corrupt, tradeoff_c,
                       reg_scale=1.0):
    """Reconstruction objective C * ||Z - recon||_F^2 + reg_scale * ||W||_F^2
    and its analytic gradients w.r.t. (W, b, b'), from one forward pass.

    ``z_clean`` and ``z_corrupt`` hold one patch per row, (n, d). The only
    (n, d) temporaries are the reconstruction and the error, each reused
    in place. Returns ``(objective, grad_w, grad_b, grad_b_dec)``.
    """
    hidden, recon = dae_forward(w, b, b_dec, z_corrupt)
    err = recon - z_clean
    objective = (tradeoff_c * float(np.vdot(err, err))
                 + reg_scale * float(np.vdot(w, w)))
    g_dec = err                                   # 2C * err * (1 - recon^2)
    g_dec *= 2.0 * tradeoff_c
    recon *= recon
    np.subtract(1.0, recon, out=recon)
    g_dec *= recon
    grad_w = hidden.T @ g_dec
    g_hid = g_dec @ w.T                           # (w g_dec) * (1 - hidden^2)
    hidden *= hidden
    np.subtract(1.0, hidden, out=hidden)
    g_hid *= hidden
    grad_w += g_hid.T @ z_corrupt
    grad_w += (2.0 * reg_scale) * w
    return objective, grad_w, g_hid.sum(axis=0), g_dec.sum(axis=0)


def _epoch_mask(state, epoch: int) -> np.ndarray:
    """The keep mask of ``epoch`` (from 1), bit-packed one patch per row.

    It is the (d, m) draw ``random((d, m)) >= corruption`` that a
    sequential "dae.corrupt" stream makes in that epoch: ``random`` takes
    one 64-bit output per double, so epoch e starts (e - 1) * d * m
    outputs in, and ``PCG64.advance`` moves a fresh stream there.
    """
    rng, d, m, corruption = state
    gen = rng.stream("dae.corrupt")
    gen.bit_generator.advance((epoch - 1) * d * m)
    return np.packbits(gen.random((d, m)).T >= corruption)


def train_dae(z_clean: np.ndarray, count: int, cfg: Config, rng: Rng,
              on_epoch=None, jobs: int = 1):
    """Minibatch SGD on the corrupted-reconstruction objective.

    The ``dae_*`` fields of ``cfg`` set the corruption rate, epoch count,
    learning rate and tradeoff; ``rng`` seeds the init, corruption and
    order streams. Updates use the per-sample mean of the batch gradient
    (learning rate is batch-size independent), decaying as lr/sqrt(epoch);
    the corruption mask is an independent Bernoulli zeroing per entry,
    resampled every epoch. Each epoch takes the clean and corrupted rows
    of the (m, d) patch matrix in its shuffled order into two buffers, and
    each minibatch is a contiguous block of rows. The masks come from
    :func:`_epoch_mask` over ``fork_pool(jobs, ...)``, so every ``jobs``
    trains the same weights.
    Returns ``(w, b, b_dec, stats)`` where ``stats["loss"]`` holds the
    running loss of each epoch.

    ``on_epoch(w, b, b_dec)``, if given, is called after each epoch that
    passes the divergence check. The arrays are the live parameters,
    which later epochs update in place: copy what must be kept.
    """
    m, d = z_clean.shape
    init_gen = rng.stream("dae.init")
    order_gen = rng.stream("dae.order")
    tradeoff_c = cfg.dae_tradeoff_c
    batch = DAE_MINIBATCH
    corrupt = cfg.dae_corruption > 0.0

    bound = 1.0 / np.sqrt(d)
    w = init_gen.uniform(-bound, bound, size=(count, d))
    b = np.zeros(count)
    b_dec = np.zeros(d)

    zp = np.empty((m, d))
    ztp = np.empty((m, d)) if corrupt else zp
    keep = np.empty((m, d), dtype=np.uint8) if corrupt else None
    epochs = range(1, cfg.dae_epochs + 1)
    epoch_loss = []
    with fork_pool(jobs if corrupt else 1, (rng, d, m, cfg.dae_corruption)) as run:
        masks = run(_epoch_mask, epochs, 1) if corrupt else (None for _ in epochs)
        for epoch, packed in zip(epochs, masks):
            lr = cfg.dae_lr / np.sqrt(epoch)
            # a permutation never clips; mode="raise" would take through
            # a buffer and copy it out
            order = order_gen.permutation(m)
            np.take(z_clean, order, axis=0, out=zp, mode="clip")
            if packed is not None:
                # row j is z_clean[order[j]] * mask[order[j]], as a gather of
                # the corrupted matrix would give
                np.take(np.unpackbits(packed, count=m * d).reshape(m, d),
                        order, axis=0, out=keep, mode="clip")
                np.multiply(zp, keep, out=ztp)
            running = 0.0
            for start in range(0, m, batch):
                zb = zp[start:start + batch]
                size = zb.shape[0]
                loss, gw, gb, gbp = dae_value_and_grad(
                    w, b, b_dec, zb, ztp[start:start + batch], tradeoff_c,
                    size / m)
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
                      cfg: Config, rng: Rng, jobs: int = 1) -> FilterBank:
    """Train the autoencoder, its masks drawn over ``jobs`` workers, and
    return encoder weights and biases.

    The decoder bias is fitted but dropped from the bank; only the encoder
    side is used for feature mapping.
    """
    if not 1 <= count <= MAX_FILTERS:
        raise ValueError(f"filter count must lie in 1..{MAX_FILTERS}")
    w, b, _, _ = train_dae(z, count, cfg, rng, jobs=jobs)
    return FilterBank(shape=shape, weights=w, biases=b)
