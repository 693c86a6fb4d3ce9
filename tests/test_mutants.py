"""``tests/mutants.py`` still fits the code: each mutant's old text occurs
exactly once in its file, and its catching test exists."""

import os

import mutants


def read(path):
    with open(os.path.join(mutants.ROOT, path), encoding="utf-8") as fh:
        return fh.read()


def test_each_old_text_occurs_once():
    assert len({m.name for m in mutants.MUTANTS}) == len(mutants.MUTANTS)
    for mutant in mutants.MUTANTS:
        assert read(mutant.path).count(mutant.old) == 1, mutant.name
        assert mutant.new != mutant.old, mutant.name
        test_file, *names = mutant.test.split("::")
        source = read(test_file)
        for name in names:
            name = name.split("[")[0]  # a parametrized case's test function
            assert "def %s(" % name in source or "class %s:" % name in source, mutant.test
