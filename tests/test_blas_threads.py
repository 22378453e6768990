"""Results do not depend on the BLAS thread count.

A threaded OpenBLAS splits long dot products and LAPACK's reductions
between threads, which moves sums in their last bits. Each check runs in
a fresh interpreter, because ``OPENBLAS_NUM_THREADS`` is read only when
numpy loads OpenBLAS.
"""

import os
import subprocess
import sys
import textwrap

import pytest

from translayer import forkpool

TESTS = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(TESTS), "src")

SVM_WEIGHTS = """
import hashlib
import numpy as np
import scipy.sparse as sp
from translayer.classify import svm_train
from translayer.rng import Rng

# rows long enough that OpenBLAS threads their dot products
gen = np.random.default_rng(0)
rows, nnz, dim = 60, 20000, 40000
indices = np.concatenate([np.sort(gen.choice(dim, nnz, replace=False))
                          for _ in range(rows)])
x = sp.csr_matrix((gen.random(rows * nnz), indices,
                   np.arange(0, rows * nnz + 1, nnz)), shape=(rows, dim))
for jobs in (1, 2):
    model = svm_train(x, np.arange(rows) % 3, 1.0, Rng(1), jobs=jobs)
    print(hashlib.sha256(model.weights.tobytes()).hexdigest())
"""

MODEL_BYTES = """
import hashlib, os, sys, tempfile
from conftest import make_glyphs, tiny_config
from translayer import train_model
from translayer.dataio import save_model

model = train_model(tiny_config(**{overrides}), *make_glyphs(150, seed=5))
with tempfile.TemporaryDirectory() as tmp:
    path = os.path.join(tmp, "model.bin")
    save_model(model, path)
    with open(path, "rb") as fh:
        print(hashlib.sha256(fh.read()).hexdigest())
"""

WPCA_FIT = """
import hashlib
from conftest import make_glyphs, tiny_config
from translayer import wpca_fit
from translayer.experiment import train_front

images, labels = make_glyphs(150, seed=5)
_, features = train_front(tiny_config(l1=8, l2=8), images, labels)
model = wpca_fit(features, labels, 8)
print(hashlib.sha256(model.projection.tobytes()
                     + model.train_vectors.tobytes()).hexdigest())
"""


PREDICTION_SCORES = """
import hashlib
from types import SimpleNamespace
import numpy as np
import scipy.sparse as sp
from translayer import Config, experiment
from translayer.classify import WpcaCosineModel

# two OpenBLAS threads split the 8-row projection's gemm at this shape,
# which moves its bits; a one- or two-row projection they leave whole
gen = np.random.default_rng(0)
d, k, n = 5000, 100, 30
clf = WpcaCosineModel(gen.random(d), gen.standard_normal((k, d)),
                      gen.standard_normal((n, k)), np.arange(n))
model = SimpleNamespace(config=Config(classifier="wpca_cosine"), classifier=clf)
projected = []
apply = experiment.wpca_apply


def recording_apply(*args):
    projected.append(apply(*args))
    return projected[-1]


experiment.wpca_apply = recording_apply
labels = experiment.predict_features(model, sp.random(8, d, density=0.1,
                                                      random_state=1) * 10)
print(hashlib.sha256(projected[0].tobytes() + labels.tobytes()).hexdigest())
"""

WPCA_APPLY = """
import hashlib
import numpy as np
import scipy.sparse as sp
from translayer import wpca_apply
from translayer.classify import WpcaCosineModel

# the 8-row projection whose gemm two OpenBLAS threads split
gen = np.random.default_rng(0)
d, k, n = 5000, 100, 30
model = WpcaCosineModel(gen.random(d), gen.standard_normal((k, d)),
                        gen.standard_normal((n, k)), np.arange(n))
features = sp.random(8, d, density=0.1, random_state=1) * 10
print(hashlib.sha256(wpca_apply(model, features).tobytes()).hexdigest())
"""


def run_at_blas_threads(threads, script):
    """stdout of ``script`` in a fresh interpreter with OpenBLAS at
    ``threads`` threads."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads),
               PYTHONPATH=os.pathsep.join([SRC, TESTS]))
    done = subprocess.run([sys.executable, "-c", textwrap.dedent(script)],
                          env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    return done.stdout.splitlines()


@pytest.fixture(scope="module", autouse=True)
def needs_openblas():
    if not forkpool._blas_thread_functions():
        pytest.skip("no OpenBLAS thread control in this process")


def test_svm_jobs_agree_with_two_blas_threads():
    serial, parallel = run_at_blas_threads(2, SVM_WEIGHTS)
    assert serial == parallel


@pytest.mark.parametrize("overrides", [
    dict(l1=8, l2=8),
    dict(l1=8, l2=8, learner="dae", classifier="wpca_cosine", dae_epochs=3,
         wpca_dim=8),
])
def test_model_bytes_do_not_depend_on_blas_threads(overrides):
    # 8 + 8 maps give features wide enough for threaded dot products
    script = MODEL_BYTES.format(overrides=overrides)
    assert run_at_blas_threads(1, script) == run_at_blas_threads(2, script)


def test_wpca_fit_called_directly_does_not_depend_on_blas_threads():
    # outside train_model, which pins BLAS to one thread itself
    assert run_at_blas_threads(1, WPCA_FIT) == run_at_blas_threads(2, WPCA_FIT)


def test_wpca_apply_called_directly_does_not_depend_on_blas_threads():
    # outside predict_features, which pins BLAS to one thread itself
    assert (run_at_blas_threads(1, WPCA_APPLY)
            == run_at_blas_threads(2, WPCA_APPLY))


def test_prediction_does_not_depend_on_blas_threads():
    # the scores predict_features computes, not only their argmax
    assert (run_at_blas_threads(1, PREDICTION_SCORES)
            == run_at_blas_threads(2, PREDICTION_SCORES))


def test_eigh_does_not_depend_on_blas_threads():
    # at n=300 LAPACK's reductions call threaded BLAS; the input is built
    # without a BLAS product, so only the solve could differ
    script = """
    import hashlib
    import numpy as np
    from translayer.linalg import jacobi_eigh

    a = np.random.default_rng(0).standard_normal((300, 300))
    vals, vecs = jacobi_eigh(a + a.T)
    print(hashlib.sha256(vals.tobytes() + vecs.tobytes()).hexdigest())
    """
    assert run_at_blas_threads(1, script) == run_at_blas_threads(2, script)


def test_one_blas_thread_restores_the_previous_count():
    script = """
    from translayer import forkpool
    functions = forkpool._blas_thread_functions()
    counts = lambda: [get() for get, _ in functions]
    print(*counts())
    with forkpool.one_blas_thread():
        print(*counts())
    print(*counts())
    """
    before, inside, after = (set(line.split())
                             for line in run_at_blas_threads(2, script))
    assert (before, inside, after) == ({"2"}, {"1"}, {"2"})
