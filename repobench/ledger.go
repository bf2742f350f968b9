package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
)

// runRecord is one run's line in the repeat ledger.
type runRecord struct {
	Workload   string  `json:"workload"`
	Seed       int64   `json:"seed"`
	Traced     bool    `json:"traced"`
	RoundsPerS float64 `json:"rounds_per_s"`
	quality
}

// repeatReport summarises the ledger for the run just recorded.
type repeatReport struct {
	seedRuns, seedDistinct       int // runs of this workload and seed, distinct fingerprints among them
	repeatedSeeds, divergedSeeds int // seeds of this workload run more than once; of those, with >1 fingerprint
	untracedRate                 float64
	untracedRuns                 int
}

// recordRun appends the run to the ledger at path and reads the ledger
// back. A fixed seed fixes every input, so runs of one workload and seed
// should share one fingerprint; the count of distinct fingerprints is
// reported, not gated on.
func recordRun(path string, res *result) (repeatReport, error) {
	rec := runRecord{Workload: res.w.Name, Seed: res.seed, Traced: res.traced,
		RoundsPerS: res.values()["rounds_per_s"], quality: res.q}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return repeatReport{}, err
	}
	line, err := json.Marshal(rec)
	if err != nil {
		return repeatReport{}, err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return repeatReport{}, err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return repeatReport{}, fmt.Errorf("append to ledger: %w", err)
	}
	if err := f.Close(); err != nil {
		return repeatReport{}, err
	}

	f, err = os.Open(path)
	if err != nil {
		return repeatReport{}, err
	}
	defer f.Close()
	fps := map[int64]map[string]int{}
	var rates []float64
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var r runRecord
		if json.Unmarshal(sc.Bytes(), &r) != nil || r.Workload != res.w.Name {
			continue
		}
		if fps[r.Seed] == nil {
			fps[r.Seed] = map[string]int{}
		}
		fps[r.Seed][r.Fingerprint]++
		if !r.Traced {
			rates = append(rates, r.RoundsPerS)
		}
	}
	if err := sc.Err(); err != nil {
		return repeatReport{}, fmt.Errorf("read ledger: %w", err)
	}
	var rep repeatReport
	for seed, byFP := range fps {
		runs := 0
		for _, n := range byFP {
			runs += n
		}
		if seed == res.seed {
			rep.seedRuns, rep.seedDistinct = runs, len(byFP)
		}
		if runs > 1 {
			rep.repeatedSeeds++
			if len(byFP) > 1 {
				rep.divergedSeeds++
			}
		}
	}
	if len(rates) > 0 {
		sort.Float64s(rates)
		rep.untracedRate, rep.untracedRuns = rates[len(rates)/2], len(rates)
	}
	return rep, nil
}
