"""The fuzzer and the router run one dispatch core.

A containment bug injected into :func:`repro.runtime.dispatch.run_batch`
— resuming one row late after a contained fault, so the packet behind
the faulted row silently vanishes — must be caught by a differential
campaign, reproduced by the minimized case, and fail the layer's own
batch≡serial containment check: the oracle has no private copy of the
batch path for the bug to hide behind.
"""

import pytest

from repro.fuzz import load_case, run_campaign, run_case
from repro.runtime import dispatch

from ..runtime import test_batch_containment as containment


def _resume_one_row_late(real_run_batch):
    def run_batch(engine, decl, plan, ps, ss, packets, ctx):
        base = 0
        while base < len(packets):
            for step in real_run_batch(engine, decl, plan, ps, ss,
                                       packets[base:], ctx):
                step = step._replace(start=base + step.start,
                                     end=base + step.end)
                yield step
                if step.kind is dispatch.FAULT:
                    # The bug: skip the row right behind the fault.
                    base, ps, ss = step.end + 2, step.ps, step.ss
                    break
            else:
                return
    return run_batch


@pytest.fixture
def late_resume(monkeypatch):
    monkeypatch.setattr(dispatch, "run_batch",
                        _resume_one_row_late(dispatch.run_batch))
    return monkeypatch


def test_campaign_catches_injected_core_bug(late_resume, tmp_path):
    report = run_campaign(314159, budget_s=60.0, min_pairs=1,
                          max_pairs=200, out_dir=tmp_path)
    assert report.divergences > 0
    # Only the batch path carries the bug.
    assert all("/serial" not in f.detail for f in report.findings)
    case = load_case(report.findings[0].case_path)
    assert not run_case(case).ok  # the minimized case replays...
    late_resume.undo()
    assert run_case(case).ok  # ...and only diverges under the bug


def test_layer_containment_check_fails_on_the_same_bug(late_resume):
    check = containment.TestRuntimeFaultMidBatch()
    batched, got_b = check.run_stream(containment.BATCH)
    serial, got_s = check.run_stream(0)
    assert len(got_b) == len(got_s) - 1  # one packet vanished
    assert batched.stats.packets_processed \
        != serial.stats.packets_processed
    with pytest.raises(AssertionError):
        check.test_faulting_row_matches_serial_exactly()
