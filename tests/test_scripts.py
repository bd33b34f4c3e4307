import importlib.util
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def _load(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_shadow_survey_defaults_exit_clean(capsys):
    assert _load("shadow_survey").main([]) == 0
    assert "11/11" in capsys.readouterr().out


def test_shadow_survey_exits_1_on_a_dirty_row(monkeypatch, capsys):
    survey = _load("shadow_survey")
    # A witness for every check makes every row dirty.
    monkeypatch.setattr(survey, "arrow_check", lambda *args: object())
    assert survey.main(["--max-length", "2", "--max-n", "4", "--shuffles", "1"]) == 1
    assert "0/2" in capsys.readouterr().out


def test_check_table_exits_clean_at_m5(capsys):
    assert _load("check_table").main(["--m", "5"]) == 0
    assert "FAIL" not in capsys.readouterr().out


def test_check_table_exits_1_on_an_oracle_mismatch(monkeypatch, capsys):
    check = _load("check_table")
    oracle = check.brute_force_kappa
    monkeypatch.setattr(check, "brute_force_kappa", lambda g: oracle(g) + 1)
    assert check.main(["--m", "5"]) == 1
    assert "oracle mismatches" in capsys.readouterr().out


def test_collapse_table_prints_the_deciding_n_node_count(capsys):
    from hcramsey.search import ramsey_number

    _load("collapse_table").main(["--max-m", "3", "--max-kappa", "3", "--nmax", "6"])
    header, *rows = capsys.readouterr().out.splitlines()
    assert header.split()[4] == "last_n_nodes"
    for row in rows:
        m, kappa, k = map(int, row.split()[:3])
        result = ramsey_number(m, kappa, k, 6)
        assert int(row.split()[-2]) == result.outcomes[max(result.outcomes)].stats.nodes


def test_collapse_table_has_no_workers_option(capsys):
    with pytest.raises(SystemExit) as exc:
        _load("collapse_table").main(["--workers", "2"])
    assert exc.value.code == 2
    assert "--workers" in capsys.readouterr().err
