#!/usr/bin/env python3
"""Check the checks: apply one-line defects and see that a test catches each.

Each mutant names a file, a text that occurs in it exactly once, the text
that replaces it, and the test that must fail once it is in.  The script
copies the repository (without ``.git`` and ``bench/_out``) to a temporary
directory, applies one mutant, runs only its catching test there, and
prints one line per mutant:

    caught   <name>    the catching test failed, as it should
    ESCAPED  <name>    the catching test passed with the defect in

It exits 1 if any mutant escaped or could not be applied.  Run from
anywhere, optionally naming the mutants to run:

    python3 tests/mutants.py
    python3 tests/mutants.py "BLEU tie goes to the longer reference"

``tests/test_mutants.py`` checks, in every test run, that each old text
still occurs exactly once, so the list follows the code it mutates.
"""

import os
import shutil
import subprocess
import sys
import tempfile
from collections import namedtuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

Mutant = namedtuple("Mutant", "name path old new test")

MUTANTS = [
    Mutant("gradient clipping computed but not applied", "src/salcap/optim.py",
           "        g *= clip_scale\n", "        g *= 1.0\n",
           "tests/test_optim.py::TestOptimizerStep::test_grad_clipping"),
    Mutant("Nadam's g term without its bias correction", "src/salcap/optim.py",
           "        g /= bc1\n", "        g /= 1.0\n",
           "tests/test_optim.py::TestOptimizerStep::test_matches_formula_transcript"),
    Mutant("Adam's eps times 10", "src/salcap/optim.py",
           "ADAM_EPS = 1e-8", "ADAM_EPS = 1e-7",
           "tests/test_optim.py::TestOptimizerStep::test_adam_first_step"),
    Mutant("ROUGE_L weighs by beta, not beta squared", "src/salcap/metrics.py",
           "beta2 = ROUGE_BETA ** 2", "beta2 = ROUGE_BETA",
           "tests/test_metrics.py::TestRougeL::test_hand_case"),
    Mutant("CIDEr's IDF as log((m + 1) / df)", "src/salcap/metrics.py",
           "math.log(m / d)", "math.log((m + 1) / d)",
           "tests/test_metrics.py::TestCider::test_fixture_corpus"),
    Mutant("BLEU clips by summed, not max, reference counts", "src/salcap/metrics.py",
           "max([ref.get(g, 0) for ref in refs])", "sum([ref.get(g, 0) for ref in refs])",
           "tests/test_metrics.py::TestBleu::test_clip_takes_the_max_not_the_sum_over_references"),
    Mutant("LCS drops the carry mask `& full`", "src/salcap/metrics.py",
           "v = ((v + u) | (v - u)) & full", "v = (v + u) | (v - u)",
           "tests/test_metrics.py::TestLcsLength::test_carry_out_of_the_top_bit_is_dropped"),
    Mutant("the corpus counts orders 1..3 only", "src/salcap/metrics.py",
           "for n in range(1, N_MAX + 1)", "for n in range(1, N_MAX)",
           "tests/test_metrics.py::TestBleu::test_fixture_corpus"),
    Mutant("evaluate_corpus reports CIDEr without its multiplier", "src/salcap/metrics.py",
           'report["cider"] = cider(corpus, cider_multiplier)', 'report["cider"] = cider(corpus)',
           "tests/test_properties.py::test_evaluate_corpus_equals_the_standalone_metrics"),
    Mutant("context path weighted by s, not 1 - s", "src/salcap/attention.py",
           '("att.ctx", "att.ctx", "z_leaf")', '("att.ctx", "att.ctx", "s_leaf")',
           "tests/test_acceptance.py::test_criterion_2_reduction_equivalences"),
    Mutant("attention_on_saliency loses its saliency weight", "src/salcap/attention.py",
           '"attention_on_saliency": {"single": ("att.single", "att.single", "s_leaf")}',
           '"attention_on_saliency": {"single": ("att.single", "att.single", None)}',
           "tests/test_attention.py::TestOneFormula::test_scores"),
    Mutant("decoding never flags truncation", "src/salcap/inference.py",
           "truncated=emitted[-1] != EOS_ID", "truncated=False",
           "tests/test_inference.py::TestGreedyDecode::test_max_len_cap_flags_truncation"),
    Mutant("tanh gradient scaled by 1 + 1e-6", "src/salcap/numerics.py",
           "g = g * (1.0 - y * y)\n", "g = g * (1.0 - y * y) * (1.0 + 1e-6)\n",
           "tests/test_acceptance.py::test_criterion_1_gradient_fidelity"),
    Mutant("a class hit without a salient pixel", "src/salcap/salstats.py",
           "if overlap >= 1 and", "if overlap >= 0 and",
           "tests/test_acceptance.py::test_criterion_7_salstats_correctness"),
    Mutant("BLEU tie goes to the longer reference", "src/salcap/metrics.py",
           "return min((abs(len(r) - cand_len), len(r)) for r in references)[1]",
           "return -min((abs(len(r) - cand_len), -len(r)) for r in references)[1]",
           "tests/test_metrics.py::TestBleu::test_tie_takes_shorter_reference"),
    Mutant("the same batch order every epoch", "src/salcap/optim.py",
           "np.random.SeedSequence([config.seed, epoch_index])",
           "np.random.SeedSequence([config.seed, 0])",
           "tests/test_optim.py::TestTrainEpoch::test_batch_order_seeded_per_epoch"),
    Mutant("constants get a gradient again", "src/salcap/numerics.py",
           "        elif b._parents:\n            b.grad = g * a.data\n",
           "        else:\n            b.grad = g * a.data\n",
           "tests/test_attention.py::test_only_parameters_hold_gradients"),
    Mutant("a constant takes its first contribution as a buffer", "src/salcap/numerics.py",
           "        elif b._parents:\n            b.grad = a.data.T.dot(g)\n",
           "        else:\n            b.grad = a.data.T.dot(g)\n",
           "tests/test_numerics.py::TestLazyBuffers::test_constant_operand_gets_no_gradient"),
    Mutant("add's second operand takes g itself", "src/salcap/numerics.py",
           "else g.copy()", "else g",
           "tests/test_numerics.py::TestLazyBuffers::test_recorded_second_operand_gets_its_own_buffer"),
    Mutant("the deferred GEMM transposed", "src/salcap/numerics.py",
           "np.array(g).T.dot(np.array(x))", "np.array(x).T.dot(np.array(g))",
           "tests/test_numerics.py::TestProductsKeepTheirBits::test_parameter_times_vector"),
    Mutant("a checkpoint's unknown variant accepted", "src/salcap/decoder.py",
           "if self.variant not in VARIANTS:", "if False:",
           "tests/test_decoder.py::TestCheckpoint::test_unknown_variant_named"),
    Mutant("softmax_vec without its max shift", "src/salcap/numerics.py",
           "shifted = e.data - e.data.max()", "shifted = e.data",
           "tests/test_numerics.py::TestSoftmax::test_large_logits_equal_the_shifted_formula"),
    Mutant("matmul's output not queued", "src/salcap/numerics.py",
           "    out = Tensor(product, (a, b), _bw)\n"
           "    if len(_PENDING) >= _PENDING_LIMIT:\n"
           "        check_recorded()\n"
           "    _PENDING.append(out)\n",
           "    out = Tensor(product, (a, b), _bw)\n",
           "tests/test_numerics.py::TestCheckedMode::test_queued_ops_queue_their_outputs"),
    Mutant("matmul lets numpy's error for unaligned operands through", "src/salcap/numerics.py",
           "    except ValueError:  # a's columns do not match b's rows\n",
           "    except ShapeError:\n",
           "tests/test_numerics.py::TestShapeErrors::test_names_both_dims"),
    Mutant("add's inline queue bound removed", "src/salcap/numerics.py",
           "    out = Tensor(ad + bd, (a, b), _bw)\n"
           "    if len(_PENDING) >= _PENDING_LIMIT:\n"
           "        check_recorded()\n",
           "    out = Tensor(ad + bd, (a, b), _bw)\n",
           "tests/test_numerics.py::TestCheckedMode::test_queue_is_bounded"),
    Mutant("add's row test takes a vector of any length", "src/salcap/numerics.py",
           "bd.shape != ad.shape[1:]", "bd.ndim != 1",
           "tests/test_numerics.py::TestShapeErrors::test_names_both_dims"),
    Mutant("sigmoid without its += 1.0", "src/salcap/numerics.py",
           "        y += 1.0\n", "",
           "tests/test_numerics.py::TestElementwise::test_sigmoid_equals_the_formula_bit_for_bit"),
    Mutant("sigmoid of a 0-d operand works in place", "src/salcap/numerics.py",
           "    if y.ndim:  # 1 / (1 + exp(-x))", "    if True:  # 1 / (1 + exp(-x))",
           "tests/test_numerics.py::TestElementwise::test_sigmoid_of_a_0d_operand"),
    Mutant("optimizer_step skips its parameter test", "src/salcap/optim.py",
           "if not np.isfinite(store.values).all():", "if False:",
           "tests/test_optim.py::TestOptimizerStep::test_non_finite_update_names_slot_and_step"),
    Mutant("a gradient under the clip norm scaled up", "src/salcap/optim.py",
           "clip_scale = min(1.0, config.grad_clip_norm / total)",
           "clip_scale = min(1.5, config.grad_clip_norm / total)",
           "tests/test_optim.py::TestOptimizerStep::test_gradient_under_clip_norm_unchanged"),
    Mutant("grad check's error times its denominator", "src/salcap/optim.py",
           "abs(gflat[k] - numeric) / denom", "abs(gflat[k] - numeric) * denom",
           "tests/test_optim.py::TestGradCheck::test_hand_worked_relative_error"),
    Mutant("truncation read from the first emitted id", "src/salcap/inference.py",
           "truncated=emitted[-1] != EOS_ID", "truncated=emitted[0] != EOS_ID",
           "tests/test_inference.py::TestGreedyDecode::test_caption_ending_at_eos_not_truncated"),
    Mutant("trace steps numbered from 0", "src/salcap/inference.py",
           "enumerate(steps, start=1)", "enumerate(steps)",
           "tests/test_inference.py::TestTraceAttention::test_steps_numbered_from_one"),
    Mutant("a caption of max_caption_len words flagged as truncated", "src/salcap/optim.py",
           "truncated = len(words) > max_caption_len", "truncated = len(words) >= max_caption_len",
           "tests/test_optim.py::TestExamples::test_truncation_boundary"),
    Mutant("num_truncated always 0", "src/salcap/optim.py",
           "num_truncated=sum(1 for e in examples if e.truncated)", "num_truncated=0",
           "tests/test_optim.py::TestTrainEpoch::test_num_truncated_counts_examples"),
    Mutant("an epoch's time as its end plus its start", "src/salcap/optim.py",
           "time.perf_counter() - started", "time.perf_counter() + started",
           "tests/test_optim.py::TestTrainEpoch::test_tokens_per_sec_is_tokens_over_epoch_seconds"),
    Mutant("tokens_per_sec as tokens times seconds", "src/salcap/optim.py",
           "tokens_per_sec=epoch_tokens / elapsed", "tokens_per_sec=epoch_tokens * elapsed",
           "tests/test_optim.py::TestTrainEpoch::test_tokens_per_sec_is_tokens_over_epoch_seconds"),
    Mutant("a slot's value copied into the arena, not viewed", "src/salcap/numerics.py",
           "value = self.values[span].reshape(array.shape)",
           "value = self.values[span].reshape(array.shape).copy()",
           "tests/test_numerics.py::TestParamStore::test_slots_view_the_arenas"),
    Mutant("the grad-check kick's scale doubled", "src/salcap/optim.py",
           "rng.normal(0.0, 0.25, slot.value.data.shape)",
           "rng.normal(0.0, 0.5, slot.value.data.shape)",
           "tests/test_optim.py::TestGradCheck::test_case_matches_the_benchmark_copy"),
    Mutant("a grad-check size changed", "src/salcap/optim.py",
           "hidden_size=16", "hidden_size=15",
           "tests/test_optim.py::TestGradCheck::test_case_matches_the_benchmark_copy"),
    Mutant("the run's vocabulary min_count lowered", "src/salcap/optim.py",
           "min_count: int = 5", "min_count: int = 4",
           "tests/test_optim.py::TestTrainConfigSetup::test_matches_the_benchmark_copy"),
    Mutant("the run's hidden size changed", "src/salcap/optim.py",
           "hidden_size: int = 64", "hidden_size: int = 48",
           "tests/test_optim.py::TestTrainConfigSetup::test_matches_the_benchmark_copy"),
    Mutant("TrainConfig skips the model check", "src/salcap/optim.py",
           "        self.model_config(data_io.DatasetManifest(1, 1, 1, []), 1)\n", "",
           "tests/test_cli.py::TestMalformedInputs::test_run_config_field[values5-hidden_size]"),
    Mutant("a span padded past its slot", "src/salcap/numerics.py",
           "            end += array.size\n", "            end += array.size + 1\n",
           "tests/test_numerics.py::TestParamStore::test_spans_tile_the_arenas_in_slot_order"),
    Mutant("decoding skips the feature dims check", "src/salcap/cli.py",
           "    if manifest.feature_dim != config.raw_feature_size:\n", "    if False:\n",
           "tests/test_cli.py::TestMalformedInputs::test_features_not_matching_the_checkpoint"),
    Mutant("decoding skips the grid check", "src/salcap/cli.py",
           "    if (manifest.grid_rows, manifest.grid_cols) != (config.grid_rows, config.grid_cols):\n",
           "    if False:\n",
           "tests/test_cli.py::TestMalformedInputs::test_grid_not_matching_the_checkpoint"),
    Mutant("saliency_context's paths swapped in the table", "src/salcap/attention.py",
           '"sal": ("att.sal", "att.sal", "s_leaf"),\n'
           '                         "ctx": ("att.ctx", "att.ctx", "z_leaf")}',
           '"ctx": ("att.ctx", "att.ctx", "z_leaf"),\n'
           '                         "sal": ("att.sal", "att.sal", "s_leaf")}',
           "tests/test_decoder.py::TestInitParams::test_parameter_layout_pinned"),
    Mutant("FileExistsError treated as a program fault", "src/salcap/cli.py",
           "(ValueError, FileNotFoundError, FileExistsError, IsADirectoryError,",
           "(ValueError, FileNotFoundError, IsADirectoryError,",
           "tests/test_cli.py::TestErrorPaths::test_out_naming_a_file"),
    Mutant("checkpoint vocabulary size not checked", "src/salcap/decoder.py",
           "    if len(vocabulary) != config.vocab_size:\n", "    if False:\n",
           "tests/test_decoder.py::TestCheckpoint::test_vocabulary_size_must_match_the_model"),
]


def apply(mutant, root):
    """Replace the mutant's old text, which must occur once, in ``root``'s copy of its file."""
    path = os.path.join(root, mutant.path)
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    if text.count(mutant.old) != 1:
        raise ValueError("%s: the old text occurs %d times in %s"
                         % (mutant.name, text.count(mutant.old), mutant.path))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text.replace(mutant.old, mutant.new))


def caught(mutant):
    """True if the catching test fails on a copy of the repository with the mutant in."""
    with tempfile.TemporaryDirectory() as tmp:
        copy = os.path.join(tmp, "repo")
        shutil.copytree(ROOT, copy, ignore=shutil.ignore_patterns(
            ".git", "_out", "__pycache__", ".pytest_cache", ".hypothesis"))
        apply(mutant, copy)
        env = dict(os.environ, PYTHONPATH=os.path.join(copy, "src"))
        result = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", mutant.test],
            cwd=copy, env=env, capture_output=True, text=True,
        )
    if result.returncode not in (0, 1):  # 1: a test failed; anything else: it did not run
        raise RuntimeError("%s: pytest exited %d\n%s" % (mutant.name, result.returncode,
                                                         result.stdout + result.stderr))
    return result.returncode == 1


def main(names):
    unknown = set(names) - {m.name for m in MUTANTS}
    if unknown:
        sys.exit("unknown mutant(s): %s" % ", ".join(sorted(unknown)))
    escaped = 0
    for mutant in MUTANTS:
        if names and mutant.name not in names:
            continue
        if caught(mutant):
            print("caught   %s" % mutant.name, flush=True)
        else:
            print("ESCAPED  %s (%s)" % (mutant.name, mutant.test), flush=True)
            escaped += 1
    return 1 if escaped else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
