"""The five attention formulations, side by side on one L x D feature tensor.

Shows how the saliency grid steers each variant, and the degeneracies
that tie the two-path model back to plain soft attention.
"""

import numpy as np

from salcap import decoder
from salcap.attention import SaliencyGrid, attend
from salcap.numerics import Tensor

SIZES = dict(vocab_size=10, hidden_size=8, embed_size=6, feature_size=6,
             raw_feature_size=6, grid_rows=2, grid_cols=3)

rng = np.random.default_rng(1)
raw = rng.normal(size=(6, 6))
h_prev = Tensor(rng.normal(size=8))

# Saliency concentrated on the first three locations
sal = SaliencyGrid(np.array([0.9, 0.9, 0.9, 0.1, 0.1, 0.1]))

for variant in ("soft", "saliency_pooling", "attention_on_saliency",
                "shared_weights", "saliency_context"):
    params = decoder.init_params(decoder.ModelConfig(variant=variant, **SIZES), rng_seed=2)
    for slot in params.store.slots():  # kick away from the near-zero init
        slot.value.data += rng.normal(0, 0.3, slot.value.data.shape)
    a = decoder.project_features(Tensor(raw), params)
    out = attend(a, sal, h_prev, params.attention)
    if out.alpha is None:
        print("%-22s alpha: (none: static pooling)  v_hat[:3] %s"
              % (variant, np.round(out.v_hat.data[:3], 3)))
    else:
        print("%-22s alpha: %s" % (variant, np.round(out.alpha.data, 3)))

# Degeneracy: with saliency identically 1 the two-path model collapses to a
# soft pass through its salient path.
params = decoder.init_params(decoder.ModelConfig(variant="saliency_context", **SIZES), rng_seed=3)
for slot in params.store.slots():
    slot.value.data += rng.normal(0, 0.3, slot.value.data.shape)
a = decoder.project_features(Tensor(raw), params)
ones = SaliencyGrid(np.ones(6))
full = attend(a, ones, h_prev, params.attention)

soft_params = decoder.init_params(decoder.ModelConfig(variant="soft", **SIZES), rng_seed=3)
for name in ("w_ae", "w_he", "v_e"):
    getattr(soft_params.attention.single, name).data[...] = getattr(params.attention.sal, name).data
for slot in soft_params.store.slots():
    if slot.name in params.store:
        slot.value.data[...] = params.store[slot.name].value.data
a_soft = decoder.project_features(Tensor(raw), soft_params)
plain = attend(a_soft, ones, h_prev, soft_params.attention)

print("\ns = 1 everywhere: |alpha_full - alpha_soft| =",
      np.max(np.abs(full.alpha.data - plain.alpha.data)))
