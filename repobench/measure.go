package main

import (
	"fmt"
	"io"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"

	"skeletonhunter/internal/analyzer"
	"skeletonhunter/internal/correlate"
	"skeletonhunter/internal/obs"
)

// setupRuns is how many times a run constructs the deployment; the
// last construction is the one warmed up and measured.
const setupRuns = 3

// result is everything one run measured.
type result struct {
	w      workload
	seed   int64
	traced bool

	builds            []time.Duration // each construction's wall time
	construct, warmup time.Duration   // median construction; the one warmup
	submit            time.Duration
	tasks             int

	// Wall time of each measured round, split by the Gate hook's verdict:
	// rounds without an analysis tick, rounds whose tick ran and drained
	// one period of records, and catch-up rounds whose tick ran after
	// withheld ones and drained several.
	plain, analysis, catchup []time.Duration

	periods       []periodStat
	cpu, wall     time.Duration // process CPU, less the API reader's own, and wall over the measured periods
	gcWall        time.Duration // wall time of the period-end collections, in wall
	allocBytes    uint64        // includes the scoring at the horizon
	peakHeap      uint64        // peak live heap at the period-end collections up to the horizon or the first withheld tick
	backlogHeap   uint64        // peak live heap at those collections from the first withheld tick to the horizon
	peakAlloc     uint64        // peak HeapAlloc, which adds garbage not yet collected
	numGC         uint32
	gcCPU, allCPU float64 // runtime/metrics estimates, seconds

	before, after obs.Snapshot

	hookAlarm, hookGray   time.Duration
	alarmCalls, grayCalls int

	q       quality
	reads   *readStats
	correct bool
	why     string
	tr      *tracer
}

func runWorkload(w workload, seed int64, seconds time.Duration, traced bool) (*result, error) {
	res := &result{w: w, seed: seed, traced: traced}
	var tr *tracer
	if traced {
		tr = newTracer()
		res.tr = tr
	}

	// The collector is scheduled, not paced: it is off, and runs to
	// completion between constructions and at the end of every analysis
	// period of the warmup and the measured phase, timed into that
	// period. Left to its pacer, it landed on one or two of a period's
	// nine plain rounds, in a share that varied from run to run, and the
	// tail percentile of plain rounds sat on the border between rounds
	// with and without a collection. The program's own commands run
	// with the paced collector.
	gcWas := debug.SetGCPercent(-1)
	defer debug.SetGCPercent(gcWas)

	// Set-up is construction plus warmup. Construction is repeated and
	// its median taken; the warmup runs once, on the deployment that is
	// measured, because at fleet-1k it alone takes tens of seconds.
	var f *fleet
	var builds []time.Duration
	for i := 0; i < setupRuns; i++ {
		f = nil
		runtime.GC()
		var t *tracer
		if i == setupRuns-1 {
			t = tr
		}
		id := t.open("hunter.construct", 0)
		t0 := time.Now()
		nf, err := construct(w, seed, t, id)
		if err != nil {
			return nil, err
		}
		builds = append(builds, time.Since(t0))
		t.close(id)
		f = nf
	}
	res.submit, res.tasks = f.submit, f.tasks
	d := f.d
	// The warmup ends a millisecond after its last analysis tick, so the
	// faults are injected after that tick and any alarm it raised scores
	// as raised before the faults. Its periods end likewise.
	id := tr.open("hunter.warmup", 0)
	t0 := time.Now()
	for p := 0; p < w.Warmup; p += int(analysisInterval / time.Second) {
		step := analysisInterval
		if p == 0 {
			step += time.Millisecond
		}
		d.Run(step)
		runtime.GC()
	}
	res.warmup = time.Since(t0)
	tr.close(id)
	res.construct, _ = percentile(builds, 0.5)
	res.builds = builds

	if err := inject(w, d); err != nil {
		return nil, err
	}
	// Hooks are installed after injection: SetTelemetryFaults replaces
	// the analyzer's Gate, and the wrapper must chain whatever is there.
	ran, withheld, backlogged := false, 0, false
	gate := d.Analyzer.Gate
	d.Analyzer.Gate = func(now time.Duration) bool {
		if gate != nil && gate(now) {
			withheld++
			backlogged = true
			return true
		}
		ran = true
		return false
	}
	var grays []correlate.Alarm
	if w.Gray {
		d.OnGray = func(al correlate.Alarm) { grays = append(grays, al) }
	}
	roundSpan := 0
	if traced {
		if onAlarm := d.Analyzer.OnAlarm; onAlarm != nil {
			d.Analyzer.OnAlarm = func(al analyzer.Alarm) {
				id := tr.open("hunter.on_alarm", roundSpan)
				t0 := time.Now()
				onAlarm(al)
				res.hookAlarm += time.Since(t0)
				res.alarmCalls++
				tr.close(id)
			}
		}
		if onGray := d.Analyzer.OnGray; onGray != nil {
			d.Analyzer.OnGray = func(al correlate.Alarm) {
				id := tr.open("hunter.on_gray", roundSpan)
				t0 := time.Now()
				onGray(al)
				res.hookGray += time.Since(t0)
				res.grayCalls++
				tr.close(id)
			}
		}
	}

	res.before = d.Stats()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	mallocs0, gc0, bytes0 := ms.Mallocs, ms.NumGC, ms.TotalAlloc
	res.peakHeap, res.peakAlloc = liveHeap(), ms.HeapAlloc
	rt0 := readRuntime()
	var rd *reader
	stop, done := make(chan struct{}), make(chan struct{})
	if w.Gray {
		rd = newReader(d.API, w.ReadRate, seed, tr)
		go func() {
			defer close(done)
			rd.run(stop)
		}()
	} else {
		close(done)
	}
	// Scoring at the horizon, and the collection after it, are not
	// measured.
	var pausedGC uint32
	var pausedRT runtimeCPU

	// The measured phase runs whole analysis periods, each ending with
	// the round that holds the analysis tick, so every run weighs plain
	// and analysis rounds alike. It stops once the next period would run
	// past the run's seconds, and not before the scoring horizon. Each
	// period's CPU time leaves out the API reader's own, so the figure
	// is the program's.
	period := int(analysisInterval / time.Second)
	var cur periodStat
	cpuAt, ownAt, probesAt, mallocsAt := processCPU(), rd.ownCPU(), res.before.Counters["probes-sent"], mallocs0
	start := time.Now()
	for r := 0; ; r++ {
		if r%period == 0 && r >= w.Horizon {
			elapsed := time.Since(start)
			if elapsed+elapsed/time.Duration(r/period) > seconds {
				break
			}
		}
		ran = false
		roundSpan = tr.open("hunter.run", 0)
		t0 := time.Now()
		d.Run(time.Second)
		dt := time.Since(t0)
		tr.close(roundSpan)
		cur.rounds += dt
		switch {
		case !ran:
			res.plain = append(res.plain, dt)
		case withheld > 0:
			res.catchup = append(res.catchup, dt)
			withheld = 0
		default:
			res.analysis = append(res.analysis, dt)
		}
		runtime.ReadMemStats(&ms)
		if ms.HeapAlloc > res.peakAlloc {
			res.peakAlloc = ms.HeapAlloc
		}
		if (r+1)%period != 0 {
			continue
		}

		id := tr.open("runtime.gc", 0)
		t0 = time.Now()
		runtime.GC()
		cur.gc = time.Since(t0)
		tr.close(id)
		probes := d.Stats().Counters["probes-sent"]
		cpu, own := processCPU(), rd.ownCPU()
		cur.cpu = cpu - cpuAt - (own - ownAt)
		cur.probes = probes - probesAt
		runtime.ReadMemStats(&ms)
		cur.mallocs = ms.Mallocs - mallocsAt
		res.periods = append(res.periods, cur)
		cur = periodStat{}
		// The live heap is sampled at a fixed simulated span, up to the
		// horizon: it grows through the run, so a peak over the whole
		// measured phase would grow with how many rounds a run fits. On
		// fleet-lossy, samples after the first withheld tick are kept
		// apart: the backlog grows the analyzer's shard inboxes, which
		// keep their capacity once drained (~75 MiB more at 512 hosts),
		// and whether a tick is withheld before the horizon is the seed's
		// draw, so the peak would take one of two values by seed.
		live := liveHeap()
		res.periods[len(res.periods)-1].live = live
		if r < w.Horizon {
			switch {
			case backlogged:
				res.backlogHeap = max(res.backlogHeap, live)
			default:
				res.peakHeap = max(res.peakHeap, live)
			}
		}
		if r+1 == w.Horizon {
			rtAt := readRuntime()
			res.q = score(d.Injector.Injections(), d.Analyzer.Alarms(), grays)
			res.q.Fingerprint = d.Fingerprint()
			if d.Incidents != nil {
				res.q.Incidents = len(d.Incidents.Incidents())
			}
			runtime.GC()
			runtime.ReadMemStats(&ms)
			pausedGC++
			rt := readRuntime()
			pausedRT.gc += rt.gc - rtAt.gc
			pausedRT.total += rt.total - rtAt.total
			pausedRT.idle += rt.idle - rtAt.idle
			cpu, own = processCPU(), rd.ownCPU()
		}
		cpuAt, ownAt, probesAt, mallocsAt = cpu, own, probes, ms.Mallocs
	}
	close(stop)
	<-done

	runtime.ReadMemStats(&ms)
	res.allocBytes = ms.TotalAlloc - bytes0
	res.numGC = ms.NumGC - gc0 - pausedGC
	rt1 := readRuntime()
	res.gcCPU = rt1.gc - rt0.gc - pausedRT.gc
	res.allCPU = rt1.busy() - rt0.busy() - pausedRT.busy()
	res.after = d.Stats()
	for _, p := range res.periods {
		res.wall += p.rounds + p.gc
		res.gcWall += p.gc
		res.cpu += p.cpu
	}
	if rd != nil {
		res.reads = &rd.stats
		tr.adopt(rd.stats.Spans)
	}
	res.correct, res.why = check(w, res.q, res.reads, res.rounds(), res.delta("probes-sent"))
	return res, nil
}

// periodStat is one analysis period of the measured phase: the wall
// time of its rounds, of the collection at its end, and the process CPU
// time, probes sent and heap allocations over both, and the live heap
// the collection found.
type periodStat struct {
	rounds, gc, cpu       time.Duration
	probes, mallocs, live uint64
}

func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// liveHeap is the heap the most recent GC cycle marked live. Unlike
// HeapAlloc it does not swing with how far the GC cycle has progressed,
// so its peak measures what the program holds.
func liveHeap() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return s[0].Value.Uint64()
}

type runtimeCPU struct{ gc, total, idle float64 }

func (r runtimeCPU) busy() float64 { return r.total - r.idle }

func readRuntime() runtimeCPU {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/cpu/classes/idle:cpu-seconds"},
	}
	metrics.Read(s)
	val := func(i int) float64 {
		if s[i].Value.Kind() != metrics.KindFloat64 {
			return 0
		}
		return s[i].Value.Float64()
	}
	return runtimeCPU{gc: val(0), total: val(1), idle: val(2)}
}

func (r *result) rounds() int { return len(r.plain) + r.analysisRounds() }

// analysisRounds counts the rounds whose analysis tick ran.
func (r *result) analysisRounds() int { return len(r.analysis) + len(r.catchup) }

// delta is a counter's change over the measured phase.
func (r *result) delta(name string) uint64 {
	return r.after.Counters[name] - r.before.Counters[name]
}

// histMs is a histogram's summed milliseconds over the measured phase.
func (r *result) histMs(name string) float64 {
	return r.after.Histograms[name].Sum - r.before.Histograms[name].Sum
}

// attempted counts probe records sent plus API reads sent; failed the
// records the analyzer's inboxes shed plus reads answered other than
// 200 or 304.
func (r *result) attempted() int64 {
	n := int64(r.delta("probes-sent"))
	if r.reads != nil {
		n += int64(r.reads.attempted())
	}
	return n
}

func (r *result) failed() int64 {
	n := int64(r.delta("records-shed"))
	if r.reads != nil {
		n += int64(r.reads.failed())
	}
	return n
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func msList(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = ms(d)
	}
	return out
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

func div(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// percentile is the nearest-rank percentile of xs (p in (0, 1]), and
// how many samples lie above it.
func percentile(xs []time.Duration, p float64) (time.Duration, int) {
	if len(xs) == 0 {
		return 0, 0
	}
	s := append([]time.Duration(nil), xs...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	rank := int(p*float64(len(s)) + 0.999999)
	if rank < 1 {
		rank = 1
	}
	return s[rank-1], len(s) - rank
}

// breakdown splits the mean measured round into the parts the program's
// own timers and the hook spans cover.
type breakdown struct {
	run, section, commit, deliver, analysis, correlate, hooks, gc, unattributed float64 // ms per round
}

func (r *result) breakdown() breakdown {
	n := float64(r.rounds())
	b := breakdown{
		run:       div(ms(r.wall), n),
		section:   div(float64(r.delta("worker-wall-nanos"))/1e6/float64(r.w.Workers), n),
		commit:    div(r.histMs("stage-ingest-ms"), n),
		deliver:   div(r.histMs("stage-deliver-ms"), n),
		analysis:  div(r.histMs("analysis-round-ms"), n),
		correlate: div(r.histMs("stage-correlate-ms"), n),
		hooks:     div(ms(r.hookAlarm+r.hookGray), n),
		gc:        div(ms(r.gcWall), n),
	}
	b.unattributed = b.run - b.section - b.commit - b.deliver - b.analysis - b.gc
	return b
}

// serial is the part of the round that runs on one goroutine: the log
// commit or serial delivery, the analysis round's correlate fold and
// alarm hooks, and the unattributed remainder (serial prologue, incident
// sweep, event loop). The analysis round's shard fan-out and merge are
// counted as parallel, as is the period-end collection, whose mark
// phase runs on every CPU, so this is a lower bound.
func (b breakdown) serial() float64 {
	return b.commit + b.deliver + b.correlate + b.hooks + b.unattributed
}

// periodRate is the median over the measured periods of rounds per
// wall second, the period-end collection included. A median over
// periods, rather than the rounds over the whole run, lets a few
// seconds in which the host runs the benchmark slowly move the figure
// less.
func (r *result) periodRate() float64 {
	xs := make([]float64, len(r.periods))
	rounds := float64(analysisInterval / time.Second)
	for i, p := range r.periods {
		xs[i] = div(rounds, (p.rounds + p.gc).Seconds())
	}
	return median(xs)
}

// periodCPU is the median over the measured periods of process CPU
// microseconds per probe sent.
func (r *result) periodCPU() float64 {
	xs := make([]float64, len(r.periods))
	for i, p := range r.periods {
		xs[i] = div(us(p.cpu), float64(p.probes))
	}
	return median(xs)
}

// periodAllocs is the median over the measured periods of heap
// allocations per round. Most allocations are the analysis tick's, and
// on fleet-lossy the seed draws which periods' ticks are withheld (few
// allocations) or catch up (many); the median takes a period whose tick
// drained one period of records.
func (r *result) periodAllocs() float64 {
	xs := make([]float64, len(r.periods))
	rounds := float64(analysisInterval / time.Second)
	for i, p := range r.periods {
		xs[i] = float64(p.mallocs) / rounds
	}
	return median(xs)
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

// values computes every metric the run can report, by name.
func (r *result) values() map[string]float64 {
	n := float64(r.rounds())
	na := float64(r.analysisRounds())
	probes := float64(r.delta("probes-sent"))
	p50, _ := percentile(r.plain, 0.5)
	p80, _ := percentile(r.plain, 0.8)
	p90, _ := percentile(r.plain, 0.9)
	a50, _ := percentile(r.analysis, 0.5)
	b := r.breakdown()
	v := map[string]float64{
		"setup_s":               (r.construct + r.warmup).Seconds(),
		"rounds_per_s":          r.periodRate(),
		"cpu_us_per_probe":      r.periodCPU(),
		"round_ms_p50":          ms(p50),
		"round_ms_p80":          ms(p80),
		"analysis_round_ms_p50": ms(a50),
		"peak_heap_mb":          float64(r.peakHeap) / (1 << 20),
		"allocs_per_round":      r.periodAllocs(),

		"probe.section_ms_per_round":        b.section,
		"probe.task_ms_per_round":           div(r.histMs("stage-probe-ms"), n),
		"probe.probes_per_round":            div(probes, n),
		"probe.util_pct":                    100 * div(float64(r.delta("worker-busy-nanos")), float64(r.delta("worker-wall-nanos"))),
		"logstore.commit_ms_per_round":      b.commit,
		"logstore.deliver_ms_per_round":     b.deliver,
		"logstore.records_logged_per_round": div(float64(r.delta("records-logged")), n),
		"logstore.index_keys":               float64(r.after.Counters["logstore-index-keys"]),
		"analyzer.round_ms":                 div(r.histMs("analysis-round-ms"), float64(r.delta("rounds-run"))),
		"detect.ms_per_analysis_round":      div(r.histMs("stage-detect-ms"), na),
		"detect.windows_per_analysis_round": div(float64(r.delta("windows-evaluated")), na),
		"detect.anomaly_ratio":              div(float64(r.delta("anomalies-detected")), float64(r.delta("windows-evaluated"))),
		"analyzer.records_shed_ratio":       div(float64(r.delta("records-shed")), float64(r.delta("records-shed")+r.delta("records-ingested"))),
		"analyzer.rounds_delayed":           float64(r.delta("rounds-delayed")),
		"localize.ms_per_analysis_round":    div(r.histMs("stage-localize-ms"), na),
		"localize.alarms":                   float64(r.delta("alarms-raised")),
		"analyzer.detect_latency_s":         r.q.DetectLatency,
		"localize.strict_recall":            r.q.StrictRecall,
		"analyzer.precision":                r.q.Precision,
		"correlate.ms_per_analysis_round":   div(r.histMs("stage-correlate-ms"), na),
		"correlate.changepoints":            float64(r.delta("changepoints-raised")),
		"correlate.dedup_ratio":             div(float64(r.delta("alarms-deduped")), float64(r.delta("alarms-deduped")+r.delta("correlate-alarms"))),
		"correlate.chains":                  float64(r.delta("chains-emitted")),
		"hunter.on_alarm_ms":                div(ms(r.hookAlarm), float64(r.alarmCalls)),
		"hunter.on_gray_ms":                 div(ms(r.hookGray), float64(r.grayCalls)),
		"hunter.on_gray_calls":              float64(r.grayCalls),
		"incident.opened":                   float64(r.delta("incidents-opened")),
		"apiserver.epochs":                  float64(r.delta("api-epoch")),
		"apiserver.watch_events":            float64(r.delta("api-watch-events")),
		"hunter.run_ms_per_round":           b.run,
		"hunter.round_ms_p90":               ms(p90),
		"hunter.unattributed_ms_per_round":  b.unattributed,
		"hunter.serial_pct":                 100 * div(b.serial(), b.run),
		"cluster.submit_ms":                 ms(r.submit),
		"runtime.gc_cpu_pct":                100 * div(r.gcCPU, r.allCPU),
		"runtime.gc_cycles_per_round":       div(float64(r.numGC), n),
		"runtime.gc_ms_per_round":           b.gc,
		"runtime.cpu_util_pct":              100 * div(r.cpu.Seconds(), r.wall.Seconds()*float64(runtime.GOMAXPROCS(0))),
		"trace.rounds_per_s":                r.periodRate(),

		"apiserver.read_us_p50":        0,
		"apiserver.read_us_p99":        0,
		"apiserver.not_modified_ratio": 0,
		"apiserver.gen_late_us_p99":    0,
	}
	if rs := r.reads; rs != nil {
		l50, _ := percentile(rs.Latency, 0.5)
		l99, _ := percentile(rs.Latency, 0.99)
		late99, _ := percentile(rs.Late, 0.99)
		v["apiserver.read_us_p50"] = us(l50)
		v["apiserver.read_us_p99"] = us(l99)
		v["apiserver.not_modified_ratio"] = div(float64(rs.NotMod), float64(rs.CondSent))
		v["apiserver.gen_late_us_p99"] = us(late99)
	}
	return v
}

// printReport writes the human-readable report: every end-to-end metric
// by name and unit, the round breakdown, and the repeat record.
func (r *result) printReport(w io.Writer, rep repeatReport) {
	v := r.values()
	mode := "untraced"
	if r.traced {
		mode = "traced: end-to-end timings include tracing cost"
	}
	fmt.Fprintf(w, "workload %s seed %d (%s): %d hosts, %d tenants, %d workers, GC off but for one collection per analysis period\n",
		r.w.Name, r.seed, mode, r.w.Hosts, r.tasks, r.w.Workers)
	fmt.Fprintf(w, "set-up: constructions %v, warmup %d rounds in %v\n", r.builds, r.w.Warmup, r.warmup)
	fmt.Fprintf(w, "measured %d rounds (%d with an analysis tick, %d of them catching up after withheld ticks) in %.2fs\n",
		r.rounds(), r.analysisRounds(), len(r.catchup), r.wall.Seconds())
	for _, m := range endToEnd {
		fmt.Fprintf(w, "  %-24s %12.4f %s\n", m.Name, v[m.Name], m.Unit)
	}
	fmt.Fprintln(w, "  not bounded (see manifest.go):")
	for _, m := range []struct {
		name  string
		value float64
		unit  string
	}{
		{"detect_latency_s", r.q.DetectLatency, "sim_s"},
		{"strict_recall", r.q.StrictRecall, "ratio"},
		{"precision", r.q.Precision, "ratio"},
		{"fail_ratio", div(float64(r.failed()), float64(r.attempted())), "ratio"},
	} {
		fmt.Fprintf(w, "  %-24s %12.6f %s\n", m.name, m.value, m.unit)
	}
	fmt.Fprintf(w, "  fail_ratio counts %d failed of %d attempted\n", r.failed(), r.attempted())
	fmt.Fprintf(w, "  peak HeapAlloc (live heap plus uncollected garbage) %.1f MiB; %.1f MiB allocated per round; %d GC cycles\n",
		float64(r.peakAlloc)/(1<<20), div(float64(r.allocBytes)/(1<<20), float64(r.rounds())), r.numGC)
	lives := make([]float64, len(r.periods))
	for i, p := range r.periods {
		lives[i] = float64(p.live) / (1 << 20)
	}
	fmt.Fprintf(w, "  live heap at the period-end collections, MiB: %.0f\n", lives)
	if r.backlogHeap > 0 {
		fmt.Fprintf(w, "  live heap after a withheld tick, up to the horizon (not in peak_heap_mb): %.1f MiB\n", float64(r.backlogHeap)/(1<<20))
	}
	fmt.Fprintf(w, "  analysis rounds, ms in order: %.0f; catch-up rounds (not in analysis_round_ms_p50): %.0f\n",
		msList(r.analysis), msList(r.catchup))
	p90, above90 := percentile(r.plain, 0.9)
	_, above80 := percentile(r.plain, 0.8)
	fmt.Fprintf(w, "  round_ms_p80 rests on %d plain rounds, %d above it; round_ms_p90 %.4f ms has %d above it\n",
		len(r.plain), above80, ms(p90), above90)
	if rs := r.reads; rs != nil {
		maxLate, _ := percentile(rs.Late, 1)
		fmt.Fprintf(w, "  %-24s %12.4f us\n", "api_read_us_p50", v["apiserver.read_us_p50"])
		fmt.Fprintf(w, "  %-24s %12.4f us\n", "api_read_us_p99", v["apiserver.read_us_p99"])
		fmt.Fprintf(w, "  reads: %d sent at %.0f/s open loop, statuses %v, generator late p99 %.1fus max %.1fus\n",
			rs.attempted(), r.w.ReadRate, rs.Statuses, v["apiserver.gen_late_us_p99"], us(maxLate))
		fmt.Fprintf(w, "  reader thread CPU: %.3fs inside ServeHTTP (counted), %.3fs its own (not counted in cpu_us_per_probe or runtime.cpu_util_pct)\n",
			rs.ServeCPU.Seconds(), rs.OwnCPU.Seconds())
	}
	fmt.Fprintf(w, "  worker-utilization-pct %.1f%% covers the parallel probe section only; runtime.cpu_util_pct %.1f%% covers the whole round\n",
		v["probe.util_pct"], v["runtime.cpu_util_pct"])

	b := r.breakdown()
	fmt.Fprintf(w, "round breakdown, ms per round (share of %.2f ms):\n", b.run)
	for _, p := range []struct {
		name string
		ms   float64
	}{
		{"probe parallel section", b.section},
		{"log commit (stage-ingest-ms, serial)", b.commit},
		{"serial per-agent delivery (stage-deliver-ms)", b.deliver},
		{"analysis round (incl. correlate fold and hooks)", b.analysis},
		{"  correlate fold (serial)", b.correlate},
		{"  alarm hooks: incident fold + API publish (serial, traced only)", b.hooks},
		{"collection at the end of each analysis period (runtime.GC)", b.gc},
		{"unattributed: prologue, sweep, event loop (serial)", b.unattributed},
	} {
		fmt.Fprintf(w, "  %-64s %9.3f  %5.1f%%\n", p.name, p.ms, 100*div(p.ms, b.run))
	}
	fmt.Fprintf(w, "  serial share (lower bound) %.1f%%\n", 100*div(b.serial(), b.run))
	if r.traced {
		fmt.Fprintln(w, "span self time:")
		for _, l := range r.tr.selfTimes() {
			fmt.Fprintf(w, "  %-20s n=%-7d total %10.1f ms  self %10.1f ms\n", l.Name, l.Count, ms(l.Total), ms(l.Self()))
		}
		if rep.untracedRate > 0 {
			fmt.Fprintf(w, "tracing overhead: %.3f rounds/s traced vs %.3f untraced (median of %d runs): %.1f%%\n",
				v["trace.rounds_per_s"], rep.untracedRate, rep.untracedRuns, 100*(1-v["trace.rounds_per_s"]/rep.untracedRate))
		}
		for _, m := range perLayer {
			fmt.Fprintf(w, "  %-36s %14.4f %s\n", m.Name, v[m.Name], m.Unit)
		}
	}
	q := r.q
	fmt.Fprintf(w, "outcome at round %d: %d episodes, recall %.3f, strict %.3f, precision %.3f, latency %.1fs, %d alarms, %d gray, %d incidents, fp %.12s\n",
		r.w.Horizon, q.Episodes, q.Recall, q.StrictRecall, q.Precision, q.DetectLatency, q.Alarms, q.GrayAlarms, q.Incidents, q.Fingerprint)
	for _, f := range q.Faults {
		fmt.Fprintf(w, "  fault %-32s gray=%-5v localized=%v\n", f.Name, f.Gray, f.Localized)
	}
	fmt.Fprintf(w, "repeat record: seed %d has %d run(s) with %d distinct fingerprint(s); %s has %d seed(s) repeated, %d of them with more than one fingerprint\n",
		r.seed, rep.seedRuns, rep.seedDistinct, r.w.Name, rep.repeatedSeeds, rep.divergedSeeds)
	if !r.correct {
		fmt.Fprintf(w, "INCORRECT: %s\n", r.why)
	}
}
