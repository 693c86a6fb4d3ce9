"""salcap: a saliency- and context-conditioned attention captioner.

Library layout:

- ``numerics``   taped float64 tensors and reverse-mode differentiation
- ``vocab``      vocabulary building and token encoding/decoding
- ``attention``  the five attention formulations over the L x D feature tensor
- ``decoder``    feature projection, word embedding, LSTM cell, output softmax
- ``optim``      sequence NLL, Adam/Nadam, training loop, gradient checking
- ``inference``  greedy decoding and per-step attention-path tracing
- ``metrics``    BLEU / ROUGE_L / CIDEr and corpus diversity statistics
- ``salstats``   saliency-vs-segmentation hit rates and size statistics
- ``data_io``    every file format, dataset manifests, synthetic data
- ``cli``        command-line surface tying the pipeline together
"""

__version__ = "0.1.0"
