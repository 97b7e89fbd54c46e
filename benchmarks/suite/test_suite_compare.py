"""Verdicts of compare.py on synthetic result sets."""

import json

import pytest

import compare


@pytest.mark.parametrize(
    ("a", "b", "better", "expected"),
    [
        # B wins every pair by more than A's quartile spread.
        ([100, 101, 99, 100, 102, 98, 100, 101, 99, 100], [110] * 10, "higher", "improved"),
        # B's median is 20 % lower on a higher-is-better metric.
        ([100] * 10, [80] * 10, "higher", "worse"),
        # B's median is 20 % higher on a lower-is-better metric.
        ([1.0] * 10, [1.2] * 10, "lower", "worse"),
        # Within the bound and within the noise.
        ([100, 101, 99, 100, 100], [100, 100, 101, 99, 100], "higher", "unchanged"),
        # Quartile spread wider than the bound: no verdict either way.
        ([60, 140, 70, 130, 100, 80, 120], [100, 65, 135, 75, 125, 85, 115], "higher",
         "unresolved"),
        # Wide spread, but every run of B beats every run of A: resolved,
        # yet no gain, as the medians differ by less than A's spread.
        ([50, 100, 70, 90], [101, 150, 120, 110], "higher", "unchanged"),
    ],
)
def test_verdicts(a, b, better, expected):
    assert compare.verdict(a, b, better, 0.1)[0] == expected


def test_win_rate_ignores_ties():
    _, win_rate = compare.verdict([1, 2, 3, 4], [1, 3, 3, 5], "higher", 0.5)
    assert win_rate == 0.5


def _result_set(values):
    runs = [{"metrics": {m: {"value": v, "unit": "x"} for m in
                         ("refs_per_s", "setup_s", "peak_rss_mb")}} for v in values]
    traced = {"metrics": {"cache.access_s": {"value": 1.0, "unit": "s/pass"}}}
    return {"workloads": {"sweep": {"runs": runs, "traced": traced}}}


def test_exit_code_is_nonzero_only_on_worse(tmp_path, capsys):
    same = tmp_path / "a.json"
    same.write_text(json.dumps(_result_set([10.0] * 5)))
    assert compare.main([str(same), str(same)]) == 0
    # Every metric 40 % higher: refs_per_s improved, the others worse.
    higher = tmp_path / "b.json"
    higher.write_text(json.dumps(_result_set([14.0] * 5)))
    assert compare.main([str(same), str(higher)]) == 1
    out = capsys.readouterr().out
    assert "improved" in out and "worse" in out
