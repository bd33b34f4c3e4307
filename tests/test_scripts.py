import importlib.util
from pathlib import Path

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
