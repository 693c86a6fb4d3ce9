"""Outside-in tracing: spans around calls into salcap's public functions.

The tracer replaces module attributes with timing wrappers for the
length of a ``with tracer.installed():`` block and restores them after.
Nothing in the program changes; a call site that looks a function up
through its module (``nm.matmul``, ``dec.lstm_step``) or through a name
imported into another module (``optim.attend``) reaches the wrapper.

Every recorded tensor (one built with parents) is counted and charged to
the innermost open span.  When ``numerics.backward`` runs, the backward
closures of the tensors recorded since the last backward are wrapped so
that their time is charged to the same layer; what ``backward`` spends
outside them is its self time.

A span is ``(id, name, start, end, parent_id, group)``.  Spans of one
train batch, captioned image or loss evaluation share a group id.
Spans stay in memory until ``write`` saves them.
"""

import contextlib
import json
import time
from collections import Counter

from salcap import attention, data_io, decoder, inference, metrics, optim, vocab
from salcap import numerics as nm

# (module, function, span name); a function a module no longer has is skipped
LAYER_FUNCTIONS = (
    (nm, "backward", "numerics.backward"),
    (attention, "score_path", "attention.score_path"),
    (attention, "attend", "attention.attend"),
    (optim, "attend", "attention.attend"),
    (inference, "attend", "attention.attend"),
    (decoder, "project_features", "decoder.project_features"),
    (decoder, "embed_word", "decoder.embed_word"),
    (decoder, "lstm_step", "decoder.lstm_step"),
    (decoder, "output_distribution", "decoder.output_distribution"),
    (decoder, "load_checkpoint", "decoder.load_checkpoint"),
    (optim, "train_epoch", "optim.train_epoch"),
    (optim, "forward_caption", "optim.forward_caption"),
    (optim, "sequence_nll", "optim.sequence_nll"),
    (optim, "caption_loss", "optim.caption_loss"),
    (optim, "optimizer_step", "optim.optimizer_step"),
    (optim, "build_examples", "optim.build_examples"),
    (inference, "greedy_decode", "inference.greedy_decode"),
    (metrics, "evaluate_corpus", "metrics.evaluate_corpus"),
    (metrics, "bleu", "metrics.bleu"),
    (metrics, "rouge_l", "metrics.rouge_l"),
    (metrics, "cider", "metrics.cider"),
    (metrics, "diversity_stats", "metrics.diversity_stats"),
    (metrics, "novelty_pct", "metrics.novelty_pct"),
    (data_io, "gen_synthetic", "data_io.gen_synthetic"),
    (data_io, "load_manifest", "data_io.load_manifest"),
    (data_io, "load_entry", "data_io.load_entry"),
    (vocab, "build_vocab", "vocab.build_vocab"),
)

NO_SPAN = "(none)"


class Tracer:
    def __init__(self):
        self.spans = []
        self.total_s = Counter()  # span name -> seconds inside the span
        self.self_s = Counter()  # span name -> seconds outside its child spans
        self.bwd_s = Counter()  # span name -> seconds in closures of tensors it recorded
        self.counts = Counter()  # "ops", "ops.<span>" (recorded in it), "calls.<span>"
        self.group = 0
        self._stack = []  # open spans: [id, name, start, seconds in children]
        self._next_id = 0
        self._pending = []  # (tensor, span name) recorded since the last backward

    def next_group(self):
        """Start a new batch, image or loss evaluation."""
        self.group += 1
        self._pending.clear()

    @contextlib.contextmanager
    def region(self, name):
        """A span around code in the benchmark itself."""
        frame = self._open(name)
        try:
            yield
        finally:
            self._close(frame)

    def _open(self, name):
        self._next_id += 1
        frame = [self._next_id, name, time.perf_counter(), 0.0]
        self._stack.append(frame)
        return frame

    def _close(self, frame):
        end = time.perf_counter()
        self._stack.pop()
        span_id, name, start, children = frame
        duration = end - start
        self.total_s[name] += duration
        self.self_s[name] += duration - children
        self.counts["calls." + name] += 1
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[3] += duration
        self.spans.append((span_id, name, start, end, parent[0] if parent else None, self.group))

    def _wrap(self, fn, name):
        def wrapper(*args, **kwargs):
            frame = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(frame)

        return wrapper

    def _wrap_backward(self, fn):
        def backward(*args, **kwargs):
            # a span of its own, so that no layer is charged for the wrapping
            frame = self._open("tracer.wrap_closures")
            for tensor, layer in self._pending:
                closure = tensor._backward_fn
                if closure is not None:
                    tensor._backward_fn = self._timed_closure(closure, layer)
            self._pending.clear()
            self._close(frame)
            frame = self._open("numerics.backward")
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(frame)

        return backward

    def _timed_closure(self, closure, layer):
        bwd_s = self.bwd_s

        def timed(grad):
            started = time.perf_counter()
            closure(grad)
            bwd_s[layer] += time.perf_counter() - started

        return timed

    @contextlib.contextmanager
    def installed(self):
        saved = []
        original_init = nm.Tensor.__init__
        stack, counts, pending = self._stack, self.counts, self._pending

        def init(tensor, *args, **kwargs):
            original_init(tensor, *args, **kwargs)
            if tensor._parents:
                layer = stack[-1][1] if stack else NO_SPAN
                counts["ops"] += 1
                counts["ops." + layer] += 1
                pending.append((tensor, layer))

        try:
            nm.Tensor.__init__ = init
            for module, attr, name in LAYER_FUNCTIONS:
                fn = getattr(module, attr, None)
                if fn is None:
                    continue
                saved.append((module, attr, fn))
                if name == "numerics.backward":
                    setattr(module, attr, self._wrap_backward(fn))
                else:
                    setattr(module, attr, self._wrap(fn, name))
            yield self
        finally:
            for module, attr, fn in reversed(saved):
                setattr(module, attr, fn)
            nm.Tensor.__init__ = original_init
            self._pending.clear()

    def write(self, path, header):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    **header,
                    "counts": self.counts,
                    "span_fields": ["id", "name", "start", "end", "parent", "group"],
                    "spans": self.spans,
                },
                fh,
            )
            fh.write("\n")


@contextlib.contextmanager
def patched(module, attr, make_wrapper):
    """Replace ``module.attr`` by ``make_wrapper(original)`` inside the block."""
    original = getattr(module, attr)
    setattr(module, attr, make_wrapper(original))
    try:
        yield
    finally:
        setattr(module, attr, original)
