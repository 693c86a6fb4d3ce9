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
           "            g /= bc1\n", "            g /= 1.0\n",
           "tests/test_optim.py::TestOptimizerStep::test_matches_formula_transcript"),
    Mutant("Adam's eps times 10", "src/salcap/optim.py",
           "ADAM_EPS = 1e-8", "ADAM_EPS = 1e-7",
           "tests/test_optim.py::TestOptimizerStep::test_adam_first_step"),
    Mutant("ROUGE_L weighs by beta, not beta squared", "src/salcap/metrics.py",
           "beta2 = ROUGE_BETA ** 2", "beta2 = ROUGE_BETA",
           "tests/test_metrics.py::TestRougeL::test_hand_case"),
    Mutant("CIDEr's IDF as log((m + 1) / df)", "src/salcap/metrics.py",
           "math.log(m / max(df[gram], 1))", "math.log((m + 1) / max(df[gram], 1))",
           "tests/test_metrics.py::TestCider::test_fixture_corpus"),
    Mutant("context path weighted by s, not 1 - s", "src/salcap/attention.py",
           "nm.hadamard(e_ctx, sal.z_leaf)", "nm.hadamard(e_ctx, sal.s_leaf)",
           "tests/test_acceptance.py::test_criterion_2_reduction_equivalences"),
    Mutant("decoding never flags truncation", "src/salcap/inference.py",
           "truncated=emitted[-1] != EOS_ID", "truncated=False",
           "tests/test_inference.py::TestGreedyDecode::test_max_len_cap_flags_truncation"),
    Mutant("tanh gradient scaled by 1 + 1e-6", "src/salcap/numerics.py",
           "_accumulate(x, g * (1.0 - y * y))", "_accumulate(x, g * (1.0 - y * y) * (1.0 + 1e-6))",
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
           "return t.grad is not None or bool(t._parents)", "return True",
           "tests/test_attention.py::test_only_parameters_hold_gradients"),
    Mutant("a constant takes its first contribution as a buffer", "src/salcap/numerics.py",
           "    elif _needs_grad(t):\n        t.grad = g\n", "    else:\n        t.grad = g\n",
           "tests/test_numerics.py::TestLazyBuffers::test_constant_operand_gets_no_gradient"),
    Mutant("add's second operand takes g itself", "src/salcap/numerics.py",
           "            g = g.copy()\n", "            pass\n",
           "tests/test_numerics.py::TestLazyBuffers::test_recorded_second_operand_gets_its_own_buffer"),
    Mutant("the deferred GEMM transposed", "src/salcap/numerics.py",
           "np.array(g).T.dot(np.array(x))", "np.array(x).T.dot(np.array(g))",
           "tests/test_numerics.py::TestProductsKeepTheirBits::test_parameter_times_vector"),
    Mutant("a checkpoint's unknown variant accepted", "src/salcap/decoder.py",
           "if self.variant not in VARIANTS:", "if False:",
           "tests/test_decoder.py::TestCheckpoint::test_unknown_variant_named"),
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
