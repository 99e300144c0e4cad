"""Tests of run.py's contract checks: BENCHMARK.json parsing and
validation, result-line validation, and agreement between BENCHMARK.json
and the metric lists compiled into the benchmark.

    python3 -m unittest discover -s benchmark/tests
"""

import copy
import json
import os
import re
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(HERE))
import run  # noqa: E402


def load_spec():
    with open(run.SPEC, "rb") as f:
        raw = f.read()
    return json.loads(raw), len(raw)


def compiled_metrics(list_name):
    """(name, unit) pairs of a metric list in src/metrics.rs."""
    with open(os.path.join(os.path.dirname(HERE), "src", "metrics.rs")) as f:
        src = f.read()
    block = src.split(f"pub const {list_name}")[1].split("];")[0]
    return re.findall(r'\("([^"]+)", "([^"]+)"\)', block)


def result_line(spec, trace=False, **over):
    listed = spec["per_layer"] if trace else spec["end_to_end"]
    result = {
        "correct": True,
        "attempted": 10,
        "failed": 0,
        "metrics": {m["name"]: {"value": 1.25, "unit": m["unit"]} for m in listed},
    }
    result.update(over)
    return json.dumps(result)


class SpecTests(unittest.TestCase):
    def setUp(self):
        self.spec, self.size = load_spec()

    def test_repository_spec_is_valid(self):
        self.assertEqual(run.validate_spec(self.spec, self.size), [])

    def test_spec_matches_compiled_metric_lists(self):
        for key, list_name in (("end_to_end", "END_TO_END"), ("per_layer", "PER_LAYER")):
            listed = [(m["name"], m["unit"]) for m in self.spec[key]]
            self.assertEqual(listed, compiled_metrics(list_name), key)

    def test_spec_lists_the_compiled_workloads(self):
        with open(os.path.join(os.path.dirname(HERE), "src", "workloads", "mod.rs")) as f:
            names = re.search(r"pub const NAMES: \[&str; \d+\] = \[([^\]]*)\]", f.read()).group(1)
        self.assertEqual([w["name"] for w in self.spec["workloads"]], re.findall(r'"([^"]+)"', names))

    def broken(self, mutate):
        spec = copy.deepcopy(self.spec)
        mutate(spec)
        return run.validate_spec(spec)

    def test_corrupted_specs_are_refused(self):
        cases = {
            "extra key": lambda s: s.update(extra=1),
            "no setup_s": lambda s: s["end_to_end"].pop(0),
            "bound too large": lambda s: s["end_to_end"][1].update(bound=0.3),
            "bad name": lambda s: s["per_layer"][0].update(name="_bad"),
            "duplicate name": lambda s: s["per_layer"].append(dict(s["per_layer"][0])),
            "bad unit": lambda s: s["per_layer"][0].update(unit="m s"),
            "bad better": lambda s: s["per_layer"][0].update(better="faster"),
            "one workload": lambda s: s.update(workloads=s["workloads"][:1]),
            "multi-line why": lambda s: s["workloads"][0].update(why="a\nb"),
            "absolute path": lambda s: s.update(paths=["/tmp"]),
            "escaping path": lambda s: s.update(paths=["../x"]),
            "command outside paths": lambda s: s.update(command=["python3", "scripts/run.py"]),
            "run_seconds": lambda s: s.update(run_seconds=61),
            "fractional run_seconds": lambda s: s.update(run_seconds=1.5),
        }
        for what, mutate in cases.items():
            with self.subTest(what):
                self.assertNotEqual(self.broken(mutate), [], what)

    def test_oversized_file_is_refused(self):
        self.assertNotEqual(run.validate_spec(self.spec, 64 * 1024 + 1), [])


class ResultTests(unittest.TestCase):
    def setUp(self):
        self.spec, _ = load_spec()

    def test_well_formed_lines_pass(self):
        self.assertEqual(run.validate_result(result_line(self.spec), self.spec, False), [])
        self.assertEqual(run.validate_result(result_line(self.spec, trace=True), self.spec, True), [])

    def test_per_layer_zero_is_allowed_but_end_to_end_zero_is_not(self):
        r = json.loads(result_line(self.spec, trace=True))
        next(iter(r["metrics"].values()))["value"] = 0
        self.assertEqual(run.validate_result(json.dumps(r), self.spec, True), [])
        r = json.loads(result_line(self.spec))
        r["metrics"]["setup_s"]["value"] = 0
        self.assertNotEqual(run.validate_result(json.dumps(r), self.spec, False), [])

    def test_malformed_lines_fail(self):
        good = json.loads(result_line(self.spec))
        missing = copy.deepcopy(good)
        del missing["metrics"]["setup_s"]
        wrong_unit = copy.deepcopy(good)
        wrong_unit["metrics"]["setup_s"]["unit"] = "ms"
        extra = copy.deepcopy(good)
        extra["metrics"]["bogus"] = {"value": 1, "unit": "s"}
        cases = {
            "not json": "metric setup_s = 1 s",
            "missing metric": json.dumps(missing),
            "wrong unit": json.dumps(wrong_unit),
            "unexpected metric": json.dumps(extra),
            "nothing attempted": result_line(self.spec, attempted=0),
            "fractional count": result_line(self.spec, failed=0.5),
            "extra key": json.dumps(dict(good, note=1)),
            "per-layer names in an untraced run": result_line(self.spec, trace=True),
        }
        for what, line in cases.items():
            with self.subTest(what):
                self.assertNotEqual(run.validate_result(line, self.spec, False), [], what)


class EnvTests(unittest.TestCase):
    def test_exported_lancet_knob_is_refused_before_building(self):
        os.environ["LANCET_TILE_COUNT"] = "2"
        try:
            code = run.main(["--workload", "plan-paper", "--seed", "1", "--seconds", "1", "--trace", "0"])
        finally:
            del os.environ["LANCET_TILE_COUNT"]
        self.assertEqual(code, 2)


if __name__ == "__main__":
    unittest.main()
