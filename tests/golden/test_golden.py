import json

from .regen import EXPECTED, differences, observe


def test_golden_run_matches_expected(tmp_path):
    """synth, pretrain, three adapt arms and evaluate reproduce expected.json:
    integers, BAs and best epochs exactly, every other number within RTOL."""
    want = json.loads(EXPECTED.read_text(encoding="utf-8"))
    got = json.loads(json.dumps(observe(tmp_path)))  # the JSON types expected.json holds
    assert differences(got, want) == []
