import sys

import pytest

import timebins
import timebins.cli
import tracing


def span(name, start, end, parent):
    return [name, start, end, parent, "run"]


def test_self_time_on_a_synthetic_tree():
    spans = [
        span("root", 0.0, 10.0, -1),
        span("a", 1.0, 4.0, 0),
        span("c", 2.0, 3.0, 1),
        span("b", 5.0, 7.0, 0),
    ]
    assert tracing.self_times(spans) == pytest.approx([5.0, 2.0, 1.0, 2.0])
    summary = tracing.summarize(spans + [span("b", 7.0, 8.0, 0)])
    assert summary["b"] == pytest.approx([2, 3.0, 3.0])
    assert summary["root"] == pytest.approx([1, 10.0, 4.0])


def test_overlapping_children_are_counted_once():
    spans = [span("root", 0.0, 10.0, -1), span("x", 1.0, 5.0, 0), span("y", 3.0, 12.0, 0)]
    assert tracing.self_times(spans)[0] == pytest.approx(1.0)


def bindings():
    """Every (holder, attribute) -> object of every traced target."""
    out = {}
    modules = [m for k, m in sys.modules.items() if k == "timebins" or k.startswith("timebins.")]
    for module, path, _ in tracing.TARGETS:
        owner, attr = tracing._resolve(sys.modules[f"timebins.{module}"], path)
        original = owner.__dict__[attr]
        for holder in [owner] if isinstance(owner, type) else modules:
            for key, value in vars(holder).items():
                if value is original:
                    out[(holder.__name__, key)] = value
    return out


def run_cli(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("experiment = collision\nt_final = 0.05\n", encoding="utf-8")
    return timebins.cli.main(["--config", str(cfg), "--out", str(tmp_path / "out.csv")])


def test_traced_run_restores_every_binding(tmp_path, capsys):
    before = bindings()
    # apply_channel is bound in channel, model and the package itself.
    assert {h for h, k in before if k == "apply_channel"} >= {
        "timebins", "timebins.channel", "timebins.model"}
    with tracing.Tracer() as tracer:
        for (holder, key), original in before.items():
            module = sys.modules.get(holder)
            current = vars(module)[key] if module else getattr(timebins.DensityMatrix, key)
            assert current is not original and current.__wrapped__ is original
        tracer.begin_run("r1")
        assert run_cli(tmp_path) == 0
        spans, counts = tracer.end_run()
    names = [s[0] for s in spans]
    assert names[0] == "cli.main" and spans[0][3] == -1
    assert {"config.parse_config", "channel.apply_channel", "channel.DensityMatrix"} <= set(names)
    assert all(s[4] == "r1" for s in spans)
    assert all(0 <= s[3] < i for i, s in enumerate(spans) if i)

    assert bindings() == before
    assert run_cli(tmp_path) == 0
    assert tracer.spans == [] and tracer.counts == {}
