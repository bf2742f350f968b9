// Command repobench is the repository's benchmark: it runs one named
// workload of the SkeletonHunter deployment, checks the run's outcome
// against the injected faults' ground truth, and prints every metric by
// name with its unit. The last line of its output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": M, "metrics": {"name": {"value": v, "unit": "u"}, ...}}
//
// With --trace 0 the metrics are the end-to-end ones, timed without
// tracing; with --trace 1 they are the per-layer ones, from a run that
// records spans around the public calls into each layer. BENCHMARK.json
// at the repository root lists both sets and the workloads; --manifest
// prints it from the definitions in manifest.go.
//
// The benchmark drives the system only through public entry points:
// hunter.New, Deployment.SubmitTask/Run/Stats/Fingerprint/
// SetTelemetryFaults, the fault injector, apiserver.Server.ServeHTTP,
// and the Analyzer's Gate/OnAlarm/OnGray hook fields, which it chains
// rather than replaces. It adds no tracing inside the program.
//
// Usage, from the repository root:
//
//	bash repobench/run.sh --workload fleet-1k --seed 1 --seconds 25 --trace 0
//
// Each run appends its outcome record (fingerprint, alarm and incident
// counts, scores) to a ledger under --out and reports how many distinct
// fingerprints each workload and seed has produced so far; traced runs
// also write their spans there. The reader's raw nanosleep makes the
// benchmark Linux-only.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

func main() {
	name := flag.String("workload", "", "workload to run (see BENCHMARK.json)")
	seed := flag.Int64("seed", 1, "seed for the deployment's random streams and the API reader")
	seconds := flag.Int("seconds", runSeconds, "seconds to measure")
	trace := flag.Int("trace", 0, "1 records spans and reports the per-layer metrics")
	out := flag.String("out", ".bench_build/repobench", "directory for the repeat ledger and traces")
	printManifest := flag.Bool("manifest", false, "print BENCHMARK.json and exit")
	flag.Parse()

	if *printManifest {
		data, err := manifestJSON()
		if err != nil {
			fail(err)
		}
		os.Stdout.Write(data)
		return
	}
	w, ok := workloadByName(*name)
	if !ok {
		fail(fmt.Errorf("unknown workload %q", *name))
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fail(fmt.Errorf("--seconds must be ≥ 1 and --trace 0 or 1"))
	}

	res, err := runWorkload(w, *seed, time.Duration(*seconds)*time.Second, *trace == 1)
	if err != nil {
		fail(err)
	}
	if *trace == 1 {
		path := filepath.Join(*out, fmt.Sprintf("trace-%s-seed%d.jsonl", w.Name, *seed))
		if err := res.tr.write(path); err != nil {
			fail(err)
		}
		fmt.Printf("trace: %d spans → %s\n", len(res.tr.spans), path)
	}
	rep, err := recordRun(filepath.Join(*out, "runs.jsonl"), res)
	if err != nil {
		fail(err)
	}
	res.printReport(os.Stdout, rep)

	defs := endToEnd
	if *trace == 1 {
		defs = perLayer
	}
	data, err := json.Marshal(res.line(defs))
	if err != nil {
		fail(err)
	}
	fmt.Println(string(data))
	if !res.correct {
		os.Exit(1)
	}
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the last line of the output.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// line reports the given metrics of the run. Every metric is computed
// by values, so a missing one is a bug in this file.
func (r *result) line(defs []metricDef) resultLine {
	vals := r.values()
	out := resultLine{r.correct, r.attempted(), r.failed(), map[string]metricValue{}}
	for _, m := range defs {
		v, ok := vals[m.Name]
		if !ok {
			panic("repobench: metric " + m.Name + " is not computed")
		}
		out.Metrics[m.Name] = metricValue{Value: v, Unit: m.Unit}
	}
	return out
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "repobench:", err)
	os.Exit(2)
}
