"""Two-layer unsupervised convolutional features with block-histogram
encoding and linear classification."""

from .classify import cosine_nn, svm_train, wpca_apply, wpca_fit
from .encoder import binarize, feature_of
from .experiment import evaluate_model, train_model
from .filters import learn_dae_filters, learn_pca_filters
from .rng import Rng
from .types import (Config, FilterBank, GrayImage, PatchShape, TrainedModel,
                    WhiteningTransform, load_config, validate_config)

__version__ = "0.1.0"
