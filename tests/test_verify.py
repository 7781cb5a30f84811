from fpverify import run_all


def test_report_step_times_add_up_to_the_run():
    for report in run_all():
        assert report.steps, report.scenario
        for step in report.steps:
            assert step.elapsed_ms > 0, (report.scenario, step.name)
        total = sum(step.elapsed_ms for step in report.steps)
        assert total <= report.elapsed_ms, report.scenario
        # the run outside its steps is only the pipeline dispatch
        assert report.elapsed_ms - total < 0.05 * report.elapsed_ms + 1.0, \
            (report.scenario, total, report.elapsed_ms)
