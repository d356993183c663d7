"""The answer sweep of tests/sweep.py runs and repeats itself: the same
cases give the same digests, so two trees can be compared by its output."""

import sweep


def test_sweep_digests_repeat(capsys):
    runs = []
    for _ in range(2):
        assert sweep.main(["--count", "20", "--seed", "1"]) == 0
        runs.append(capsys.readouterr().out.splitlines())
    assert runs[0] == runs[1]
    lines = runs[0]
    assert len(lines) == 21 and lines[-1].startswith("all ")
    names = [line.split()[1] for line in lines[:-1]]
    assert [line.split()[0] for line in lines[:-1]] == \
        [str(i) for i in range(20)]
    # every random field and every tower of the block sums is met
    assert {n.split("-")[1] for n in names} == \
        {name for name, _ctx in sweep.RANDOM_FIELDS + sweep.TOWERS}


def test_sweep_expect_checks_the_last_digest(capsys):
    assert sweep.main(["--count", "3"]) == 0
    total = capsys.readouterr().out.splitlines()[-1].split()[1]
    assert sweep.main(["--count", "3", "--expect", total]) == 0
    capsys.readouterr()
    assert sweep.main(["--count", "3", "--expect", "0" * 64]) == 1
    out, err = capsys.readouterr()
    assert out.splitlines()[-1] == "all " + total
    assert "expected " + "0" * 64 in err
