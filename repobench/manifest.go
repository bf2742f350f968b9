package main

import (
	"bytes"
	"encoding/json"
)

// metricDef names one reported metric. Bound is set only on end-to-end
// metrics: the share of the parent commit's median by which the metric
// may worsen before a change counts as a regression.
type metricDef struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

func bound(b float64) *float64 { return &b }

// endToEnd are the figures a user of the system sees, reported from
// untraced runs. Every one is emitted on every workload and is never
// zero on a correct run. The report also prints figures kept out of
// this list: API read latency exists on gray-api only, the failure
// ratio is zero on correct runs (it is the result line's failed and
// attempted), and the detection scores move in steps of one alarm or
// episode from seed to seed, too coarse for a percentage bound (they
// are per-layer figures, and the correctness check requires the
// workload's hard faults and every gray fault localized).
//
// The tail figure is round_ms_p80, the highest percentile of plain
// rounds with ten samples above it on every workload: fleet-1k fits
// ~80 plain rounds in a run. round_ms_p90 is a per-layer figure.
//
// rounds_per_s and cpu_us_per_probe are medians over the run's
// analysis periods, each period's figure taking in the collection the
// benchmark runs at its end (see runWorkload).
//
// analysis_round_ms_p50 takes the rounds whose analysis tick drained
// one period of records. On fleet-lossy the catch-up rounds after
// withheld ticks drain several; the seed draws how many there are, so
// they are printed apart rather than moving the median from seed to
// seed.
//
// peak_heap_mb is the peak of the live heap measured at the period-end
// collections up to the scoring horizon, a fixed simulated span: the
// live heap grows through the measured phase (on fleet-1k from ~640
// MiB at the horizon to ~720 MiB six periods later), so a peak over the
// whole run grew with how many rounds the machine fitted into it.
//
// Wall-clock and CPU figures take the widest bound: on the 2-CPU
// machine they were set on, a fixed memory-bound loop alone drifts by
// ±10% over tens of seconds, and whole runs of one seed differ by up
// to 20%. Allocation counts repeat to within ~1%.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", bound(0.25)},
	{"rounds_per_s", "1/s", "higher", bound(0.25)},
	{"cpu_us_per_probe", "us", "lower", bound(0.25)},
	{"round_ms_p50", "ms", "lower", bound(0.25)},
	{"round_ms_p80", "ms", "lower", bound(0.25)},
	{"analysis_round_ms_p50", "ms", "lower", bound(0.25)},
	{"peak_heap_mb", "MiB", "lower", bound(0.25)},
	{"allocs_per_round", "count", "lower", bound(0.1)},
}

// perLayer are the traced run's per-layer figures. Each names, in a
// comment, the end-to-end metric it should move and the workload where
// it should move it. A layer a workload does not run reads 0 there.
var perLayer = []metricDef{
	// probe → rounds_per_s, cpu_us_per_probe, round_ms_p50 (fleet-1k).
	{"probe.section_ms_per_round", "ms", "lower", nil},
	{"probe.task_ms_per_round", "ms", "lower", nil},
	{"probe.probes_per_round", "count", "higher", nil},
	{"probe.util_pct", "%", "higher", nil},
	// logstore → round_ms_p50/p90, rounds_per_s, peak_heap_mb: commit
	// on fleet-1k (sharded path), deliver on fleet-lossy (serial path).
	{"logstore.commit_ms_per_round", "ms", "lower", nil},
	{"logstore.deliver_ms_per_round", "ms", "lower", nil},
	{"logstore.records_logged_per_round", "count", "higher", nil},
	{"logstore.index_keys", "count", "lower", nil},
	// analyzer/detect → analysis_round_ms_p50 and the failure ratio
	// (fleet-1k, fleet-lossy).
	{"analyzer.round_ms", "ms", "lower", nil},
	{"detect.ms_per_analysis_round", "ms", "lower", nil},
	{"detect.windows_per_analysis_round", "count", "higher", nil},
	{"detect.anomaly_ratio", "ratio", "lower", nil},
	{"analyzer.records_shed_ratio", "ratio", "lower", nil},
	{"analyzer.rounds_delayed", "count", "lower", nil},
	// localize → analysis_round_ms_p50 (gray-api).
	{"localize.ms_per_analysis_round", "ms", "lower", nil},
	{"localize.alarms", "count", "lower", nil},
	// Scores at the horizon against fault ground truth (all workloads):
	// mean first-alarm latency per fault episode, episodes detected and
	// localized, and alarms raised while a fault was active.
	{"analyzer.detect_latency_s", "sim_s", "lower", nil},
	{"localize.strict_recall", "ratio", "higher", nil},
	{"analyzer.precision", "ratio", "higher", nil},
	// correlate → analysis_round_ms_p50, analyzer.detect_latency_s
	// (gray-api).
	{"correlate.ms_per_analysis_round", "ms", "lower", nil},
	{"correlate.changepoints", "count", "lower", nil},
	{"correlate.dedup_ratio", "ratio", "higher", nil},
	{"correlate.chains", "count", "higher", nil},
	// incident + API publish → analysis_round_ms_p50, rounds_per_s
	// (gray-api): spans around the chained Analyzer hooks.
	{"hunter.on_alarm_ms", "ms", "lower", nil},
	{"hunter.on_gray_ms", "ms", "lower", nil},
	{"hunter.on_gray_calls", "count", "lower", nil},
	{"incident.opened", "count", "lower", nil},
	{"apiserver.epochs", "count", "lower", nil},
	// API reads → read latency (gray-api).
	{"apiserver.read_us_p50", "us", "lower", nil},
	{"apiserver.read_us_p99", "us", "lower", nil},
	{"apiserver.not_modified_ratio", "ratio", "higher", nil},
	{"apiserver.watch_events", "count", "higher", nil},
	{"apiserver.gen_late_us_p99", "us", "lower", nil},
	// round remainder → rounds_per_s, setup_s (all workloads).
	{"hunter.run_ms_per_round", "ms", "lower", nil},
	{"hunter.round_ms_p90", "ms", "lower", nil},
	{"hunter.unattributed_ms_per_round", "ms", "lower", nil},
	{"hunter.serial_pct", "%", "lower", nil},
	{"cluster.submit_ms", "ms", "lower", nil},
	// Go runtime → cpu_us_per_probe, allocs_per_round (all workloads).
	{"runtime.gc_cpu_pct", "%", "lower", nil},
	{"runtime.gc_cycles_per_round", "count", "lower", nil},
	{"runtime.gc_ms_per_round", "ms", "lower", nil},
	{"runtime.cpu_util_pct", "%", "higher", nil},
	// Tracing cost: traced rounds/s, to set beside the untraced figure.
	{"trace.rounds_per_s", "1/s", "higher", nil},
}

// runSeconds is how long one run measures. A full benchmark pass is
// 4 + 22 × len(workloads) runs; with fleet-1k's ~20 s set-up a run of
// each workload takes ~45, ~35 and ~28 s at 25 s of measurement on a
// 2-CPU machine, which keeps the pass near 43 minutes, inside an hour.
// fleet-1k fits eight or nine analysis periods in a run.
const runSeconds = 25

type manifestWorkload struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type manifest struct {
	Command    []string           `json:"command"`
	Paths      []string           `json:"paths"`
	RunSeconds int                `json:"run_seconds"`
	Workloads  []manifestWorkload `json:"workloads"`
	EndToEnd   []metricDef        `json:"end_to_end"`
	PerLayer   []metricDef        `json:"per_layer"`
}

// manifestJSON renders BENCHMARK.json from the definitions above; the
// self-test checks the committed file against it.
func manifestJSON() ([]byte, error) {
	m := manifest{
		Command:    []string{"bash", "repobench/run.sh"},
		Paths:      []string{"repobench"},
		RunSeconds: runSeconds,
		EndToEnd:   endToEnd,
		PerLayer:   perLayer,
	}
	for _, w := range workloads {
		m.Workloads = append(m.Workloads, manifestWorkload{Name: w.Name, Why: w.Why})
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(m); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}
