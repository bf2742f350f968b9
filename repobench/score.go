package main

import (
	"fmt"

	"skeletonhunter/internal/analyzer"
	"skeletonhunter/internal/component"
	"skeletonhunter/internal/correlate"
	"skeletonhunter/internal/faults"
	"skeletonhunter/internal/localize"
	"skeletonhunter/internal/metrics"
)

// quality is a run's outcome at the scoring horizon: the three scores
// against fault ground truth, each fault's own outcome, plus the record
// used to compare repeats.
type quality struct {
	Episodes      int            `json:"episodes"`
	Recall        float64        `json:"recall"`
	StrictRecall  float64        `json:"strict_recall"`
	Precision     float64        `json:"precision"`
	DetectLatency float64        `json:"detect_latency_s"`
	Faults        []faultOutcome `json:"faults"`
	Alarms        int            `json:"alarms"`
	GrayAlarms    int            `json:"gray_alarms"`
	Incidents     int            `json:"incidents"`
	Fingerprint   string         `json:"fingerprint"`
}

// faultOutcome is one injected fault at the horizon. Localized means an
// alarm raised at or after its onset named one of its ground-truth
// components; for a gray fault only the correlate layer's gray alarms
// count. Every fault the benchmark injects is its own episode: each has
// its own components and none is cleared.
type faultOutcome struct {
	Name      string `json:"name"`
	Gray      bool   `json:"gray"`
	Localized bool   `json:"localized"`
}

// score matches alarms against the injections with metrics.Score's
// episode rules. Gray alarms count the way cmd/correlatebench counts
// them: each minted alarm once, at its first raise, naming its
// component; a ToR congestion droop is also caught by an alarm naming
// the switch itself, since a queue change-point blames the switch while
// the injector blames its configuration.
//
// metrics.Score credits an episode as detected, and an alarm as
// precise, whenever any alarm is raised while the fault is active. The
// faults here are injected at one instant and never cleared, so the
// first alarm after injection detects every episode; only the per-fault
// localization says which faults the system actually found.
func score(injections []*faults.Injection, hard []analyzer.Alarm, gray []correlate.Alarm) quality {
	alarms := append([]analyzer.Alarm(nil), hard...)
	seen := map[int]bool{}
	var grayAlarms []analyzer.Alarm
	for _, g := range gray {
		if seen[g.Seq] {
			continue
		}
		seen[g.Seq] = true
		grayAlarms = append(grayAlarms, analyzer.Alarm{At: g.At, Verdicts: []localize.Verdict{{Components: []component.ID{g.Component}}}})
	}
	alarms = append(alarms, grayAlarms...)
	truth := make([]*faults.Injection, len(injections))
	q := quality{Alarms: len(hard), GrayAlarms: len(seen)}
	for i, in := range injections {
		cp := *in
		if in.IsGray() && in.Target.Switch != "" {
			cp.Components = append(append([]component.ID(nil), in.Components...), component.Switch(in.Target.Switch))
		}
		truth[i] = &cp
		by := hard
		if in.IsGray() {
			by = grayAlarms
		}
		q.Faults = append(q.Faults, faultOutcome{Name: in.Info.Name, Gray: in.IsGray(), Localized: names(by, &cp)})
	}
	r := metrics.Score(truth, alarms, analysisInterval)
	q.Episodes = r.Episodes
	q.Recall = r.EpisodeRecall()
	q.Precision = r.Precision()
	q.DetectLatency = r.MeanEpisodeLatency.Seconds()
	if r.Episodes > 0 {
		q.StrictRecall = float64(r.LocalizedEpisodes) / float64(r.Episodes)
	}
	return q
}

// names reports whether an alarm raised at or after the injection
// names one of its components.
func names(alarms []analyzer.Alarm, in *faults.Injection) bool {
	for _, a := range alarms {
		if a.At < in.At {
			continue
		}
		for _, c := range a.Components() {
			for _, want := range in.Components {
				if c == want {
					return true
				}
			}
		}
	}
	return false
}

// check is the run's correctness verdict against fault ground truth:
// at least w.MinLocalized of the hard faults must be localized by the
// horizon, every gray fault must be named by a gray alarm, and the API
// must never answer with a server error.
func check(w workload, q quality, reads *readStats, rounds int, probes uint64) (bool, string) {
	hard := 0
	var missedHard, missedGray []string
	for _, f := range q.Faults {
		switch {
		case !f.Gray && f.Localized:
			hard++
		case !f.Gray:
			missedHard = append(missedHard, f.Name)
		case !f.Localized:
			missedGray = append(missedGray, f.Name)
		}
	}
	switch {
	case rounds == 0 || probes == 0:
		return false, "no probing rounds measured"
	case len(q.Faults) == 0:
		return false, "no faults were injected"
	case hard < w.MinLocalized:
		return false, fmt.Sprintf("%d hard faults localized, want at least %d; not localized: %v", hard, w.MinLocalized, missedHard)
	case len(missedGray) > 0:
		return false, fmt.Sprintf("no gray alarm named a component of %v", missedGray)
	case reads != nil && reads.serverErrors() > 0:
		return false, "the API answered with server errors"
	}
	return true, ""
}
