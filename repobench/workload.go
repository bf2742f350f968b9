package main

import (
	"errors"
	"fmt"
	"math/rand"
	"time"

	"skeletonhunter/internal/apiserver"
	"skeletonhunter/internal/cluster"
	"skeletonhunter/internal/correlate"
	"skeletonhunter/internal/detect"
	"skeletonhunter/internal/faults"
	"skeletonhunter/internal/hunter"
	"skeletonhunter/internal/parallelism"
	"skeletonhunter/internal/topology"
)

// workload is one named campaign the benchmark runs.
type workload struct {
	Name string
	Why  string
	// Hosts sizes the fabric (topology.Production); the fleet is filled
	// with 12-container TP8·PP4·DP3 tenants.
	Hosts   int
	Workers int
	// Warmup is the number of 1 s probing rounds run during set-up,
	// before the faults are injected. It is a whole number of analysis
	// periods and lasts until the detector's look-back history is full
	// (see construct), so the measured rounds run at the system's steady
	// cost rather than on its ramp.
	Warmup int
	// Horizon is the number of measured rounds after injection at which
	// the outcome is scored and fingerprinted, a whole number of
	// analysis periods. It is counted in simulated rounds, so the scored
	// outcome does not depend on how fast the machine runs; the measured
	// phase continues past it until the run's seconds are spent.
	Horizon int
	// MinLocalized is how many of the three hard faults a correct run
	// localizes by the horizon: the fewest seen over seeds 1-10 in
	// several processes each.
	MinLocalized int
	// Lossy installs telemetry faults on the ingest path at injection.
	Lossy bool
	// Gray arms the correlate layer and the API plane, adds two gray
	// faults, and runs an open-loop API reader at ReadRate requests/s.
	Gray     bool
	ReadRate float64
}

const analysisInterval = 10 * time.Second

// workloads are the benchmark's named campaigns. Workers plus the API
// reader goroutine never exceed two, the CPU count the figures were
// taken on.
var workloads = []workload{
	{
		Name:    "fleet-1k",
		Why:     "paper-scale 1024-host round (85 tenants, ~90K probes) with hard faults: probing, log commit and detect do the work",
		Hosts:   1024,
		Workers: 2,
		Warmup:  80,
		Horizon: 40,
		// Every hard fault is localized on every seed.
		MinLocalized: 3,
	},
	{
		Name:    "fleet-lossy",
		Why:     "512 hosts, same faults plus batch drop/dup/reorder and withheld ticks: the serial per-agent delivery path and inbox backlog",
		Hosts:   512,
		Workers: 2,
		Warmup:  80,
		Horizon: 40,
		// Under telemetry loss the offline agg switch is not localized
		// by the horizon on some seeds (one or two of seeds 1-10 per set).
		MinLocalized: 2,
		Lossy:        true,
	},
	{
		Name:    "gray-api",
		Why:     "128 hosts with correlate, gray faults and the API published under a 2000 req/s open-loop reader: analysis and publish dominate",
		Hosts:   128,
		Workers: 1,
		Warmup:  80,
		Horizon: 120,
		// Every hard fault is localized on every seed.
		MinLocalized: 3,
		Gray:         true,
		ReadRate:     2000,
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workload{}, false
}

// fastestLag removes the minutes-scale container lifecycle delays so the
// whole fleet probes from the first simulated seconds.
func fastestLag() cluster.LagModel {
	return cluster.LagModel{
		CreateLag:    func(*rand.Rand, int) time.Duration { return 0 },
		StartupDelay: func(*rand.Rand) time.Duration { return time.Second },
		StopLag:      func(*rand.Rand) time.Duration { return 0 },
	}
}

// fleet is a deployment after construction.
type fleet struct {
	d      *hunter.Deployment
	tasks  int
	submit time.Duration
}

// construct builds the deployment and fills it with tenants; the
// submission span is recorded under parent.
func construct(w workload, seed int64, tr *tracer, parent int) (*fleet, error) {
	opts := hunter.Options{
		Seed:    seed,
		Spec:    topology.Production(w.Hosts),
		Lag:     fastestLag(),
		Workers: w.Workers,
		// Short windows keep detection inside the measured phase at the
		// campaign's compressed timescale. A look-back of six windows is
		// the least history the LOF stage evaluates against, so the
		// detector's per-round cost stops growing at the seventh window
		// (~80 s) instead of the eleventh; the warmup covers that ramp.
		Detect:           detect.Config{ShortWindow: analysisInterval, LookBack: 6},
		AnalysisInterval: analysisInterval,
	}
	if w.Gray {
		// Six analysis rounds of calibration fit inside the warmup.
		opts.Correlate = &correlate.Config{Warmup: 6}
	}
	d, err := hunter.New(opts)
	if err != nil {
		return nil, err
	}
	if w.Gray {
		// The API plane is published in-process: the deployment renders
		// into the server on every alarm and sweep, and the reader calls
		// its ServeHTTP directly, with no socket.
		d.API = apiserver.New(apiserver.Config{})
	}

	f := &fleet{d: d}
	par := parallelism.Config{TP: 8, PP: 4, DP: 3}
	id := tr.open("cluster.submit", parent)
	t0 := time.Now()
	for {
		_, err := d.SubmitTask(cluster.TaskSpec{Par: par})
		if errors.Is(err, cluster.ErrNoCapacity) {
			break
		}
		if err != nil {
			return nil, err
		}
		f.tasks++
	}
	f.submit = time.Since(t0)
	tr.close(id)
	if f.tasks == 0 {
		return nil, fmt.Errorf("%d hosts fit no 12-host tenant", w.Hosts)
	}
	return f, nil
}

// inject applies the workload's fault schedule at the current simulated
// time, on the targets cmd/scalebench uses: an RNIC down, a ToR port
// down and an agg switch offline, plus, on gray workloads, a ramping
// ToR and an RNIC a few microseconds slow. The targets are fixed so
// that the scores measure the system, not the luck of a seed's draw;
// the seed varies the deployment's own random streams.
func inject(w workload, d *hunter.Deployment) error {
	hosts := w.Hosts
	if _, err := d.Injector.Inject(faults.RNICPortDown, faults.Target{Host: hosts / 3, Rail: 3}); err != nil {
		return err
	}
	port := hosts / 2
	link := topology.MakeLinkID(topology.NIC{Host: port, Rail: 5}.ID(), d.Fabric.ToR(d.Fabric.PodOf(port), 5))
	if _, err := d.Injector.Inject(faults.SwitchPortDown, faults.Target{Link: link}); err != nil {
		return err
	}
	if _, err := d.Injector.Inject(faults.SwitchOffline, faults.Target{Switch: d.Fabric.Agg(0, 1)}); err != nil {
		return err
	}
	if w.Gray {
		if _, err := d.Injector.InjectGray(faults.GrayCongestionDroop, faults.Target{Switch: d.Fabric.ToR(0, 1)}); err != nil {
			return err
		}
		if _, err := d.Injector.InjectGray(faults.GrayPartialRTT, faults.Target{Host: hosts / 4, Rail: 2}); err != nil {
			return err
		}
	}
	if w.Lossy {
		d.SetTelemetryFaults(faults.TelemetryOptions{
			DropBatchProb:      0.02,
			DuplicateBatchProb: 0.02,
			ReorderBatchProb:   0.05,
			DelayRoundProb:     0.10,
		})
	}
	return nil
}
