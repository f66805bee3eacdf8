"""Driver warm-session reuse: keep_session / warm_instance (PR 8).

The serve daemon parks an interrupted engine (open deepening session
included) and hands it back to a later run of the same configuration.
These tests pin the driver-level contract that makes that sound.
"""

import pytest

from repro.core.cancel import CancelToken
from repro.functions import get_spec
from repro.synth import synthesize


class TestKeepSession:
    def test_default_runs_do_not_expose_the_engine(self):
        result = synthesize(get_spec("3_17"), kinds=("mct",), engine="sat")
        assert result.engine_instance is None

    def test_keep_session_returns_live_instance(self):
        result = synthesize(get_spec("3_17"), kinds=("mct",), engine="sat",
                            keep_session=True)
        assert result.status == "realized"
        instance = result.engine_instance
        assert instance is not None
        assert instance.name == "sat"
        assert instance.session_active
        instance.end_session()
        assert not instance.session_active

    def test_engine_instance_never_reaches_the_record(self):
        import repro.obs as obs
        result = synthesize(get_spec("3_17"), kinds=("mct",), engine="sat",
                            keep_session=True)
        record = obs.build_run_record(result)
        assert "engine_instance" not in record
        result.engine_instance.end_session()


class TestWarmInstance:
    def test_timeout_then_resume_finishes_the_search(self):
        # graycode6 takes ~0.4 s with the native solver, ~0.9 s without:
        # far past the 0.05 s budget either way.
        spec = get_spec("graycode6")
        first = synthesize(spec, kinds=("mct",), engine="sat",
                           time_limit=0.05, keep_session=True)
        assert first.status == "timeout"
        warm = first.engine_instance
        assert warm is not None and warm.session_active
        # Resume from the hot solver; the record is indistinguishable
        # from a cold run apart from wall time.
        second = synthesize(spec, kinds=("mct",), engine="sat",
                            warm_instance=warm, time_limit=120.0)
        assert second.status == "realized"
        assert second.engine_instance is None  # keep_session not asked
        cold = synthesize(spec, kinds=("mct",), engine="sat")
        assert (second.depth, second.num_solutions) \
            == (cold.depth, cold.num_solutions)

    def test_warm_run_accepts_fresh_cancel_token(self):
        import threading
        spec = get_spec("hwb4")
        first = synthesize(spec, kinds=("mct",), engine="sat",
                           time_limit=0.5, keep_session=True)
        event = threading.Event()
        event.set()
        second = synthesize(spec, kinds=("mct",), engine="sat",
                            warm_instance=first.engine_instance,
                            cancel_token=CancelToken(event))
        assert second.status == "cancelled"

    def test_engine_name_mismatch_rejected(self):
        first = synthesize(get_spec("3_17"), kinds=("mct",), engine="sat",
                           keep_session=True)
        with pytest.raises(ValueError):
            synthesize(get_spec("3_17"), kinds=("mct",), engine="bdd",
                       warm_instance=first.engine_instance)
        first.engine_instance.end_session()

    def test_parallel_execution_rejected(self):
        first = synthesize(get_spec("3_17"), kinds=("mct",), engine="sat",
                           keep_session=True)
        warm = first.engine_instance
        with pytest.raises(ValueError):
            synthesize(get_spec("3_17"), kinds=("mct",), engine="sat",
                       warm_instance=warm, workers=2)
        with pytest.raises(ValueError):
            synthesize(get_spec("3_17"), kinds=("mct",), engine="portfolio",
                       keep_session=True)
        warm.end_session()
