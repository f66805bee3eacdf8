"""Run-record schema: validator behaviour and end-to-end trace export."""

import json

import pytest

from repro.functions import get_spec
from repro.obs.runrecord import (RESULT_PROVENANCE_FIELDS,
                                 RUN_RECORD_FORMAT, RUN_RECORD_SCHEMA,
                                 VOLATILE_RECORD_FIELDS, build_run_record,
                                 canonical_record, iter_records,
                                 read_records, summarize_records,
                                 validate_run_record)
from repro.synth import synthesize


@pytest.fixture(scope="module")
def traced_records(tmp_path_factory):
    """One real synthesize() per engine flavour, exported to JSONL."""
    path = tmp_path_factory.mktemp("trace") / "records.jsonl"
    synthesize(get_spec("3_17"), kinds=("mct",), engine="bdd",
               trace=str(path))
    synthesize(get_spec("toffoli"), kinds=("mct",), engine="sat",
               trace=str(path))
    return read_records(str(path))


class TestValidator:
    def base_record(self):
        return {
            "format": RUN_RECORD_FORMAT,
            "spec": "cnot",
            "n_lines": 2,
            "engine": "bdd",
            "library": {"name": "MCT", "size": 6, "select_bits": 3},
            "status": "realized",
            "depth": 1,
            "num_solutions": 1,
            "num_circuits": 1,
            "solutions_truncated": False,
            "quantum_cost_min": 1,
            "quantum_cost_max": 1,
            "runtime": 0.1,
            "unix_time": 1700000000.0,
            "per_depth": [
                {"depth": 0, "decision": "unsat", "runtime": 0.01,
                 "timed_out": False, "metrics": {"bdd.ite_calls": 4.0},
                 "detail": {}},
            ],
            "metrics": {"bdd.ite_calls": 4.0},
            "versions": {"repro": "0.1.0", "python": "3.11.0"},
        }

    def test_valid_record_passes(self):
        assert validate_run_record(self.base_record()) == []

    def test_missing_required_key_reported(self):
        record = self.base_record()
        del record["engine"]
        errors = validate_run_record(record)
        assert any("engine" in e for e in errors)

    def test_unknown_status_rejected(self):
        record = self.base_record()
        record["status"] = "exploded"
        assert validate_run_record(record)

    def test_unknown_top_level_key_rejected(self):
        record = self.base_record()
        record["surprise"] = 1
        errors = validate_run_record(record)
        assert any("surprise" in e for e in errors)

    def test_bool_is_not_a_number(self):
        record = self.base_record()
        record["metrics"]["bdd.ite_calls"] = True
        assert validate_run_record(record)

    def test_non_numeric_metric_rejected(self):
        record = self.base_record()
        record["per_depth"][0]["metrics"]["bdd.nodes"] = "many"
        errors = validate_run_record(record)
        assert any("bdd.nodes" in e for e in errors)

    def test_negative_runtime_rejected(self):
        record = self.base_record()
        record["runtime"] = -1.0
        assert validate_run_record(record)

    def test_per_depth_items_validated(self):
        record = self.base_record()
        record["per_depth"][0]["decision"] = "maybe"
        assert validate_run_record(record)

    def test_incremental_flag_is_optional_boolean(self):
        # Optional: pre-existing traces without the key stay valid.
        record = self.base_record()
        assert "incremental" not in record
        assert validate_run_record(record) == []
        record["incremental"] = True
        assert validate_run_record(record) == []
        record["incremental"] = 1
        assert validate_run_record(record)


class TestExportedRecords:
    def test_every_record_is_schema_valid(self, traced_records):
        assert len(traced_records) == 2
        for record in traced_records:
            assert validate_run_record(record) == []

    def test_records_are_json_lines(self, traced_records, tmp_path):
        path = tmp_path / "roundtrip.jsonl"
        with open(path, "w") as handle:
            for record in traced_records:
                handle.write(json.dumps(record) + "\n")
        assert list(iter_records(str(path))) == traced_records

    def test_bdd_record_carries_engine_metrics(self, traced_records):
        record = next(r for r in traced_records if r["engine"] == "bdd")
        assert record["spec"] == "3_17"
        assert record["status"] == "realized"
        assert record["depth"] == 6
        assert record["metrics"]["bdd.ite_calls"] > 0
        assert record["metrics"]["bdd.ite_cache_hits"] > 0
        assert record["metrics"]["bdd.peak_nodes"] > 2
        # Every tried depth reports its own work figures.  The depth-0
        # query can run entirely inside match_forall's row fold
        # (terminal-level conjunctions bypass the apply cache; each
        # folded row counts as a quantifier call), so the witness of
        # per-depth work is the combined apply + quantifier call count,
        # not ite_calls alone.
        for step in record["per_depth"]:
            assert (step["metrics"]["bdd.ite_calls"]
                    + step["metrics"]["bdd.quant_calls"]) > 0

    def test_sat_record_carries_solver_metrics(self, traced_records):
        record = next(r for r in traced_records if r["engine"] == "sat")
        assert record["metrics"]["sat.propagations"] > 0
        assert record["metrics"]["sat.vars"] > 0
        assert record["metrics"]["sat.clauses"] > 0
        assert record["metrics"]["driver.depths_tried"] == \
            len(record["per_depth"])

    def test_records_carry_the_incremental_flag(self, traced_records):
        # Both flavours here run warm: the BDD cascade and the SAT
        # session are incremental by default.
        for record in traced_records:
            assert record["incremental"] is True
        sat = next(r for r in traced_records if r["engine"] == "sat")
        assert sat["metrics"]["sat.incremental.assumptions"] >= 1
        for step in sat["per_depth"]:
            assert step["detail"]["incremental"] is True

    def test_library_block_describes_the_run(self, traced_records):
        for record in traced_records:
            assert record["library"]["size"] > 0
            assert record["library"]["select_bits"] > 0

    def test_build_run_record_without_library(self):
        result = synthesize(get_spec("toffoli"), kinds=("mct",), engine="bdd")
        record = build_run_record(result)
        # n_lines falls back to the circuits; library block is a stub.
        assert record["n_lines"] == 3
        assert record["library"]["name"] == "unknown"


class TestVolatility:
    def test_canonical_record_strips_exactly_the_flagged_fields(self):
        flagged = {name for name, schema
                   in RUN_RECORD_SCHEMA["properties"].items()
                   if schema.get("volatile")}
        assert flagged == VOLATILE_RECORD_FIELDS == {
            "runtime", "unix_time", "workers", "cpu_count", "worker_id",
            "retried", "winner_engine", "speculation_wasted_depths",
            "store_hit", "store_resumed_from", "fleet_host",
            "fleet_attempt"}
        record = TestValidator().base_record()
        record.update(incremental=True, workers=2, cpu_count=4, worker_id=1,
                      retried=0, winner_engine="bdd",
                      speculation_wasted_depths=1, store_hit=True,
                      store_resumed_from=2, fleet_host="h", fleet_attempt=1)
        assert set(record) == set(RUN_RECORD_SCHEMA["properties"])
        assert validate_run_record(record) == []
        assert set(record) - set(canonical_record(record)) == flagged

    def test_result_provenance_fields_are_flagged(self):
        result = synthesize(get_spec("toffoli"), kinds=("mct",),
                            engine="bdd")
        plain = build_run_record(result)
        result.store_hit = True
        result.store_resumed_from = 1
        result.workers = 2
        result.winner_engine = "bdd"
        result.speculation_wasted_depths = 0
        stamped = build_run_record(result)
        added = set(stamped) - set(plain)
        assert added == set(RESULT_PROVENANCE_FIELDS) | {"cpu_count"}
        assert added <= VOLATILE_RECORD_FIELDS
        assert validate_run_record(stamped) == []
        assert canonical_record(stamped) == canonical_record(plain)
        # None of it is part of the result's canonical body.
        assert not added & set(result.to_dict())


class TestSummary:
    def test_summary_renders_all_records(self, traced_records):
        text = summarize_records(traced_records)
        assert "3_17" in text
        assert "toffoli" in text
        assert "2 records (0 invalid)" in text
        assert "aggregate BDD ITE cache hit rate" in text

    def test_summary_flags_invalid_records(self, traced_records):
        broken = dict(traced_records[0])
        del broken["status"]
        text = summarize_records(traced_records + [broken])
        assert "(1 invalid)" in text
        assert "!! invalid record" in text
