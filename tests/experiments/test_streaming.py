"""``ext-stream``: the open-loop service run reproduces itself."""

from repro.experiments.cli import main


def test_json_is_byte_identical_across_runs(capsys):
    reports = []
    for _run in range(2):
        assert main(["ext-stream", "--json"]) == 0
        reports.append(capsys.readouterr().out)
    assert reports[0] == reports[1]
    assert '"experiment_id": "ext-stream"' in reports[0]
