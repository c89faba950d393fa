"""The benchmark's verdict oracle accepts every job of its seed-1 lists.

``perfbench/run.py`` checks each job's exit code, report and written files
against ``perfbench/jobs.py``; a change that breaks a verdict there makes
every benchmark run fail.  This test runs each seed-1 job once through the
benchmark's own ``Runner``, untimed and untraced, with the inputs its set-up
writes to a temporary directory.
"""

from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_every_seed_one_job_passes_the_verdict_oracle(monkeypatch, tmp_path):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    import jobs
    import run

    runner = run.Runner(str(tmp_path))
    for workload in ("geometry", "obstruct", "tables"):
        jobs.setup(workload, 1, str(tmp_path))
        for job in jobs.job_list(workload, 1, str(tmp_path))[0]:
            runner.run(job)
    assert runner.attempted == 120
    assert runner.failures == []
