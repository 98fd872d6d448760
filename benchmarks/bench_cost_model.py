"""Cost-model validation: predictions vs measurements (Sect. 8 extension).

The paper's future work asks for a theoretical cost model; this benchmark
validates ours: for every grid method, the pre-execution prediction of
replication / shuffle / time is compared against the measured join, and
the model must rank the methods the way the measurements do.
"""

from repro.bench.harness import DEFAULT_EPS, run_grid_method
from repro.bench.report import format_table, write_report
from repro.core.cost_model import predict_join
from repro.planner import plan_join

METHODS = ("lpib", "diff", "uni_r", "uni_s", "eps_grid")


def test_cost_model_validation(benchmark, ctx):
    r, s = ctx.cache.combo(("S1", "S2"))
    rows = []
    predictions = {}
    measurements = {}
    for method in METHODS:
        pred = predict_join(r, s, DEFAULT_EPS, method)
        actual = run_grid_method(r, s, DEFAULT_EPS, method, ctx.scale)
        predictions[method] = pred
        measurements[method] = actual
        repl_err = pred.replicated_total / max(actual.replicated_total, 1) - 1
        time_err = pred.exec_time / actual.exec_time_model - 1
        rows.append(
            [
                method,
                round(pred.replicated_total),
                actual.replicated_total,
                f"{repl_err:+.0%}",
                round(pred.exec_time, 3),
                round(actual.exec_time_model, 3),
                f"{time_err:+.0%}",
            ]
        )
    text = format_table(
        "Cost model -- predicted vs measured (S1 |><| S2)",
        ["method", "repl pred", "repl meas", "err", "time pred", "time meas", "err"],
        rows,
    )
    write_report("cost_model_validation", text)

    # the model must reproduce the measured method ranking at the top
    pred_best = min(predictions, key=lambda m: predictions[m].exec_time)
    meas_best = min(measurements, key=lambda m: measurements[m].exec_time_model)
    assert pred_best in ("lpib", "diff")
    assert meas_best in ("lpib", "diff")

    # universal replication predictions are tight; time within 2x
    for method in ("uni_r", "uni_s", "eps_grid"):
        pred, actual = predictions[method], measurements[method]
        assert 0.7 < pred.replicated_total / max(actual.replicated_total, 1) < 1.3
        assert 0.5 < pred.exec_time / actual.exec_time_model < 2.0

    planned = plan_join(
        r, s, DEFAULT_EPS, clock="modelled",
        pins={"resolution_factor": 2.0, "kernel": "plane_sweep", "workers": 12},
    )
    assert planned.chosen.method in ("lpib", "diff")

    benchmark.pedantic(
        lambda: predict_join(r, s, DEFAULT_EPS, "lpib"), rounds=3, iterations=1
    )
