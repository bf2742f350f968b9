package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"testing"
	"time"

	"skeletonhunter/internal/analyzer"
	"skeletonhunter/internal/component"
	"skeletonhunter/internal/correlate"
	"skeletonhunter/internal/faults"
	"skeletonhunter/internal/localize"
	"skeletonhunter/internal/topology"
)

// toy is a pocket-sized workload that runs every layer the named
// workloads run: the correlate layer, the API plane and its reader, and
// telemetry faults on the serial delivery path.
// At 32 hosts the agg switch going offline is not localized within the
// horizon; the other two hard faults and both gray faults are.
var toy = workload{
	Name: "toy", Hosts: 32, Workers: 1, Warmup: 70, Horizon: 30,
	MinLocalized: 2, Lossy: true, Gray: true, ReadRate: 200,
}

func TestManifestMatchesCommittedFile(t *testing.T) {
	want, err := manifestJSON()
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("BENCHMARK.json is stale; regenerate it with: bash repobench/run.sh --manifest > BENCHMARK.json")
	}
}

// TestToyRunEmitsEveryMetric runs the toy workload untraced and traced
// and checks that each emits every metric BENCHMARK.json names, with
// the unit it names, and judges the run correct.
func TestToyRunEmitsEveryMetric(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var m manifest
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	for _, traced := range []bool{false, true} {
		res, err := runWorkload(toy, 3, time.Second, traced)
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("traced=%v: faults at the horizon: %+v", traced, res.q.Faults)
		if !res.correct {
			t.Fatalf("traced=%v: toy run judged incorrect: %s", traced, res.why)
		}
		defs := m.EndToEnd
		if traced {
			defs = m.PerLayer
		}
		line := res.line(defs)
		if line.Attempted < 1 {
			t.Errorf("traced=%v: attempted %d", traced, line.Attempted)
		}
		for _, d := range defs {
			got, ok := line.Metrics[d.Name]
			if !ok || got.Unit != d.Unit {
				t.Errorf("traced=%v: metric %s = %+v, want unit %q", traced, d.Name, got, d.Unit)
			}
		}
		if !traced {
			for _, d := range defs {
				if line.Metrics[d.Name].Value == 0 {
					t.Errorf("end-to-end metric %s reads 0", d.Name)
				}
			}
		}
	}
}

// TestCheckRejectsWrongOutcomes scores hand-made alarms against three
// hard faults and two gray faults, all injected at 100 s, and checks the
// verdict: a fault counts only when an alarm raised after its onset
// names one of its components, and gray faults only by gray alarms.
func TestCheckRejectsWrongOutcomes(t *testing.T) {
	const at = 100 * time.Second
	rnic, link, agg := component.RNIC(3, 3), component.Link("nic-h5-r5|tor-p0-r5"), component.Switch("agg-p0-1")
	tor, slow := topology.NodeID("tor-p0-1"), component.RNIC(8, 2)
	injections := []*faults.Injection{
		{Type: faults.RNICPortDown, Info: faults.Info{Name: "RNIC port down"}, At: at, Components: []component.ID{rnic}},
		{Type: faults.SwitchPortDown, Info: faults.Info{Name: "Switch port down"}, At: at, Components: []component.ID{link}},
		{Type: faults.SwitchOffline, Info: faults.Info{Name: "Switch offline"}, At: at, Components: []component.ID{agg}},
		{Type: faults.IssueType(100 + int(faults.GrayCongestionDroop)), Info: faults.Info{Name: "Gray congestion droop"}, At: at,
			Target: faults.Target{Switch: tor}, Components: []component.ID{component.SwitchConfig(tor)}},
		{Type: faults.IssueType(100 + int(faults.GrayPartialRTT)), Info: faults.Info{Name: "Gray partial RTT inflation"}, At: at,
			Components: []component.ID{slow}},
	}
	// Gray types sit at the injector's unexported offset of 100; the
	// guard below fails if that offset moves.
	if !injections[3].IsGray() || !injections[4].IsGray() || injections[0].IsGray() {
		t.Fatal("test injections are not typed hard and gray as intended")
	}
	alarm := func(sec int, comps ...component.ID) analyzer.Alarm {
		return analyzer.Alarm{At: time.Duration(sec) * time.Second, Verdicts: []localize.Verdict{{Components: comps}}}
	}
	grays := []correlate.Alarm{{Seq: 1, At: 110 * time.Second, Component: component.Switch(tor)}, {Seq: 2, At: 130 * time.Second, Component: slow}}
	all := []analyzer.Alarm{alarm(110, rnic), alarm(110, link), alarm(120, agg)}
	unrelated := component.RNIC(9, 1)
	ok200 := &readStats{Statuses: map[int]int{http.StatusOK: 10, http.StatusNotModified: 5}}
	gray := workload{Gray: true, MinLocalized: 3}
	cases := []struct {
		name   string
		w      workload
		hard   []analyzer.Alarm
		grays  []correlate.Alarm
		reads  *readStats
		rounds int
		want   bool
	}{
		{"every fault localized", gray, all, grays, ok200, 10, true},
		{"no reader", gray, all, grays, nil, 10, true},
		{"two of three where two suffice", workload{Gray: true, MinLocalized: 2}, all[:2], grays, ok200, 10, true},
		{"no alarms", gray, nil, nil, ok200, 10, false},
		{"one alarm on an unrelated component", gray, []analyzer.Alarm{alarm(110, unrelated)}, grays, ok200, 10, false},
		{"alarms before onset", gray, []analyzer.Alarm{alarm(90, rnic), alarm(90, link), alarm(90, agg)}, grays, ok200, 10, false},
		{"a hard fault not localized", gray, all[:2], grays, ok200, 10, false},
		{"no gray alarm", gray, all, nil, ok200, 10, false},
		{"one of two gray faults named", gray, all, grays[:1], ok200, 10, false},
		{"gray faults named only by hard alarms", gray, append(all, alarm(110, component.Switch(tor), slow)), nil, ok200, 10, false},
		{"gray alarm on an unrelated component", gray, all, []correlate.Alarm{{Seq: 1, At: 110 * time.Second, Component: unrelated}}, ok200, 10, false},
		{"api 5xx", gray, all, grays, &readStats{Statuses: map[int]int{http.StatusOK: 10, http.StatusServiceUnavailable: 1}}, 10, false},
		{"no rounds", gray, all, grays, ok200, 0, false},
	}
	for _, c := range cases {
		q := score(injections, c.hard, c.grays)
		if got, why := check(c.w, q, c.reads, c.rounds, 100); got != c.want {
			t.Errorf("%s: check = %v (%s), want %v", c.name, got, why, c.want)
		}
	}
}
