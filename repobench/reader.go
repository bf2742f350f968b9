package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/url"
	"runtime"
	"strconv"
	"sync/atomic"
	"syscall"
	"time"
	"unsafe"

	"skeletonhunter/internal/apiserver"
)

// operators is how many simulated operator consoles share the read load.
// At 2000 req/s each sends ~31/s, under the server's default 50/s
// per-client budget, so the limiter never refuses a well-paced reader.
const operators = 64

// idsRefresh is how often the reader re-parses the incident list for
// the IDs it picks single incidents from. The list changes with nearly
// every publish; parsing each new version took a fifth of a core, CPU
// the program under test would otherwise have.
const idsRefresh = 250 * time.Millisecond

// operator is one console: its address (the rate limiter's key), the
// ETags it revalidates with, and its watch cursor.
type operator struct {
	addr   string
	tags   map[string]string
	cursor uint64
}

// readStats is what the reader measured. Latencies are timed from each
// request's due time, so time the generator spent late counts against
// the server's figure rather than flattering it.
type readStats struct {
	Latency  []time.Duration
	Late     []time.Duration
	Statuses map[int]int
	NotMod   int // 304 answers
	CondSent int // requests that carried If-None-Match
	Spans    []span
	// ServeCPU is the reader thread's CPU time inside ServeHTTP, the
	// program's share; OwnCPU is the rest of its CPU time (pacing,
	// request building, response parsing), the load generator's share.
	ServeCPU, OwnCPU time.Duration
}

// attempted is the number of reads sent; failed those answered other
// than 200 or 304.
func (s *readStats) attempted() int { return len(s.Latency) }

func (s *readStats) failed() int {
	n := 0
	for code, c := range s.Statuses {
		if code != http.StatusOK && code != http.StatusNotModified {
			n += c
		}
	}
	return n
}

func (s *readStats) serverErrors() int {
	n := 0
	for code, c := range s.Statuses {
		if code >= 500 {
			n += c
		}
	}
	return n
}

// bodyWriter is a ResponseWriter that keeps the current response's
// headers, and its body when keep is set.
type bodyWriter struct {
	hdr    http.Header
	status int
	keep   bool
	body   []byte
}

func (w *bodyWriter) Header() http.Header { return w.hdr }
func (w *bodyWriter) WriteHeader(c int) {
	if w.status == 0 {
		w.status = c
	}
}
func (w *bodyWriter) Write(p []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	if w.keep {
		w.body = append(w.body, p...)
	}
	return len(p), nil
}
func (w *bodyWriter) reset() {
	w.status, w.body = 0, w.body[:0]
	for k := range w.hdr {
		delete(w.hdr, k)
	}
}

// reader is an open-loop API client: requests are due at a fixed rate
// whether or not earlier ones were slow. It calls ServeHTTP in-process
// while the simulation publishes into the same server.
type reader struct {
	srv   *apiserver.Server
	rate  float64
	rng   *rand.Rand
	zipf  *rand.Zipf
	ops   []operator
	ids   []string  // incident IDs from the last incident list parsed
	idsAt string    // that list's ETag
	idsOn time.Time // when it was parsed
	tr    *tracer   // read-only here: spans go to stats.Spans, timed from tr.origin
	stats readStats
	// own is the reader's own CPU time so far, in nanoseconds, as of its
	// last request; the measuring loop reads it at period boundaries.
	own atomic.Int64
}

// ownCPU is the reader's own CPU time so far; zero without a reader.
func (r *reader) ownCPU() time.Duration {
	if r == nil {
		return 0
	}
	return time.Duration(r.own.Load())
}

func newReader(srv *apiserver.Server, rate float64, seed int64, tr *tracer) *reader {
	rng := rand.New(rand.NewSource(seed ^ 0x7ead))
	r := &reader{
		srv: srv, rate: rate, rng: rng, tr: tr,
		zipf:  rand.NewZipf(rng, 1.2, 1, 1<<20),
		stats: readStats{Statuses: map[int]int{}},
	}
	for i := 0; i < operators; i++ {
		r.ops = append(r.ops, operator{
			addr:   fmt.Sprintf("198.18.%d.%d:1", i/256, i%256),
			tags:   map[string]string{},
			cursor: srv.Epoch(),
		})
	}
	return r
}

// run sends requests until stop is closed, then returns. It runs on an
// OS thread of its own, which ends with it, so that the thread's CPU
// clock splits the reader's CPU time into the time spent inside
// ServeHTTP and its own.
func (r *reader) run(stop <-chan struct{}) {
	runtime.LockOSThread() // never unlocked: the thread exits with the goroutine
	setTimerSlack()
	cpu0 := threadCPU()
	defer func() { r.stats.OwnCPU = threadCPU() - cpu0 - r.stats.ServeCPU }()
	interval := time.Duration(float64(time.Second) / r.rate)
	w := &bodyWriter{hdr: make(http.Header, 8)}
	u := &url.URL{}
	req := &http.Request{Method: http.MethodGet, URL: u, Header: make(http.Header, 2),
		Proto: "HTTP/1.1", ProtoMajor: 1, ProtoMinor: 1}
	start := time.Now()
	for i := 0; ; i++ {
		select {
		case <-stop:
			return
		default:
		}
		due := start.Add(time.Duration(i) * interval)
		waitUntil(due)
		sent := time.Now()

		op := &r.ops[i%operators]
		req.RemoteAddr = op.addr
		path, cond := r.pick(op, u)
		delete(req.Header, "If-None-Match")
		if tag := op.tags[path]; cond && tag != "" {
			req.Header["If-None-Match"] = []string{tag}
			r.stats.CondSent++
		}
		w.reset()
		w.keep = path == "/v1/incidents" && time.Since(r.idsOn) >= idsRefresh
		c0 := threadCPU()
		r.srv.ServeHTTP(w, req)
		c1 := threadCPU()
		r.stats.ServeCPU += c1 - c0
		r.own.Store(int64(c1 - cpu0 - r.stats.ServeCPU))
		end := time.Now()
		if w.status == 0 {
			w.status = http.StatusOK // a handler that writes nothing answers 200
		}

		r.stats.Latency = append(r.stats.Latency, end.Sub(due))
		r.stats.Late = append(r.stats.Late, sent.Sub(due))
		r.stats.Statuses[w.status]++
		if r.tr != nil {
			r.stats.Spans = append(r.stats.Spans, span{ID: i + 1, Name: "apiserver.read",
				Start: int64(due.Sub(r.tr.origin)), End: int64(end.Sub(r.tr.origin))})
		}
		r.absorb(op, path, cond, w)
	}
}

// pick chooses the next request's target: conditional GETs of the
// incident list, a zipf-popular incident, the alarms and the blacklist,
// and watch catch-up polls that never block.
func (r *reader) pick(op *operator, u *url.URL) (path string, cond bool) {
	u.RawQuery = ""
	switch n := r.rng.Intn(100); {
	case n < 30 && len(r.ids) > 0:
		u.Path = "/v1/incidents/" + r.ids[int(r.zipf.Uint64())%len(r.ids)]
	case n < 55:
		u.Path = "/v1/incidents"
	case n < 70:
		u.Path = "/v1/alarms"
	case n < 85:
		u.Path = "/v1/blacklist"
	default:
		u.Path = "/v1/watch"
		u.RawQuery = "wait_ms=0&cursor=" + strconv.FormatUint(op.cursor, 10)
		return u.Path, false
	}
	return u.Path, true
}

// absorb updates the operator's client state from a response.
func (r *reader) absorb(op *operator, path string, cond bool, w *bodyWriter) {
	switch w.status {
	case http.StatusOK:
		if !cond {
			if next, err := strconv.ParseUint(w.hdr.Get("X-Epoch"), 10, 64); err == nil {
				op.cursor = next
			}
			return
		}
		tag := w.hdr.Get("ETag")
		op.tags[path] = tag
		if w.keep && tag != r.idsAt {
			r.idsAt, r.idsOn = tag, time.Now()
			var list struct {
				Incidents []struct {
					ID string `json:"id"`
				} `json:"incidents"`
			}
			if json.Unmarshal(w.body, &list) == nil {
				r.ids = r.ids[:0]
				for _, in := range list.Incidents {
					r.ids = append(r.ids, in.ID)
				}
			}
		}
	case http.StatusNotModified:
		r.stats.NotMod++
	case http.StatusGone:
		// The cursor aged out of the watch backlog: resync forward, as
		// a console would after re-reading the resources.
		op.cursor = r.srv.Epoch()
	}
}

// waitUntil blocks until t. time.Sleep rounds short waits up to the
// runtime timer's granularity (about 1 ms on Linux), which would make
// every read look late by up to a millisecond. A raw nanosleep on a
// thread whose timer slack is 1 µs (see setTimerSlack) wakes within a
// few microseconds, so sleep until just before t and spin the rest.
func waitUntil(t time.Time) {
	const spin = 20 * time.Microsecond
	if d := time.Until(t) - spin; d > 0 {
		ts := syscall.NsecToTimespec(int64(d))
		_ = syscall.Nanosleep(&ts, nil) // EINTR only shortens the wait; the spin below covers it
	}
	for time.Now().Before(t) {
	}
}

// setTimerSlack lowers the calling thread's timer slack from the
// kernel's default 50 µs to 1 µs. Errors are ignored: the spin in
// waitUntil still meets the due time, at more CPU.
func setTimerSlack() {
	const prSetTimerSlack = 29
	syscall.RawSyscall(syscall.SYS_PRCTL, prSetTimerSlack, 1000, 0)
}

// threadCPU is the calling thread's CPU time.
func threadCPU() time.Duration {
	const clockThreadCPUTimeID = 3
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		return 0
	}
	return time.Duration(ts.Nano())
}
