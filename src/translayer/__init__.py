"""Two-layer unsupervised convolutional features with block-histogram
encoding and linear classification."""

from .classify import (LinearSvmModel, WpcaCosineModel, WpcaModel, cosine_nn,
                       svm_predict_many, svm_train, wpca_apply, wpca_fit)
from .encoder import binarize, compress_groups, feature_of
from .experiment import (EvalResult, evaluate_model, extract_features,
                         train_model)
from .filters import learn_dae_filters, learn_pca_filters, sample_patches
from .pipeline import build_stack, map_layer
from .preprocess import lcn_matrix, whiten_apply, whiten_fit
from .rng import Rng
from .types import (Config, FilterBank, GrayImage, HistogramFeature,
                    PatchShape, TrainedModel, WhiteningTransform, load_config,
                    parse_config, validate_config)

__version__ = "0.1.0"
