package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"dfence/internal/spec"
)

// runConfig is one invocation's settings.
type runConfig struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	traceDir string // write the benchmark's spans here as Chrome trace JSON
	j        int
	ops      int    // operations per pass, for tests; 0 selects the workload's own
	workDir  string // scratch space inside the checkout
	probes   probeLimits
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// runDetail is printed on the line before the result: what ran and the
// output digests.
type runDetail struct {
	Header   header `json:"header"`
	Workload string `json:"workload"`
	Traced   bool   `json:"traced"`
	Ops      int    `json:"ops"`    // operations per pass
	Passes   int    `json:"passes"` // untraced passes
	// PeakRSSMB is the process's peak resident set size. It is not a
	// gated metric: with concurrent clients it moves by a third from run
	// to run with how their allocations overlap the collector.
	PeakRSSMB    float64  `json:"peak_rss_mb"`
	Digest       string   `json:"digest"`
	TracedDigest string   `json:"traced_digest,omitempty"`
	Failures     []string `json:"failures,omitempty"`
}

// pass is one closed-loop run of a workload's operations.
type pass struct {
	res  []opResult
	lat  []float64 // ms per operation, by index
	wall time.Duration
}

// runPass runs operations 0..count-1 from clients closed-loop callers:
// each caller takes the next operation only after its previous one has
// completed. With sp non-nil each operation gets a span, on its caller's
// lane, under one span for the pass.
func runPass(r runner, clients, count int, sp *spans, name string) pass {
	root := sp.begin(name, 0, 0)
	defer root.end()
	var (
		next  atomic.Int64
		wg    sync.WaitGroup
		mu    sync.Mutex
		last  time.Time
		p     = pass{res: make([]opResult, count), lat: make([]float64, count)}
		start = time.Now()
	)
	for c := 1; c <= clients; c++ {
		wg.Add(1)
		go func(lane int) {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= count {
					return
				}
				s := root.s.begin(fmt.Sprintf("op %d", i), lane, root.id())
				t0 := time.Now()
				o := r.op(i, s)
				end := time.Now()
				s.end()
				lat := o.lat
				if lat == 0 {
					lat = end.Sub(t0)
				}
				// Each index is written by exactly one caller; the mutex
				// only orders the shared end time.
				p.res[i], p.lat[i] = o, float64(lat.Nanoseconds())/1e6
				mu.Lock()
				if end.After(last) {
					last = end
				}
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	p.wall = last.Sub(start)
	return p
}

// digest hashes the operations' outputs in index order.
func (p pass) digest() string {
	h := sha256.New()
	for _, o := range p.res {
		fmt.Fprintln(h, o.out)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// failures lists the operations' errors.
func (p pass) failures() []string {
	var out []string
	for _, o := range p.res {
		if o.err != nil {
			out = append(out, o.err.Error())
		}
	}
	return out
}

// metricSet collects one run's metrics; a value that cannot be measured is
// recorded as null with its reason and makes the run incorrect.
type metricSet struct {
	m        map[string]metricValue
	units    map[string]string
	problems []string
}

func newMetricSet(defs []metricDef) *metricSet {
	ms := &metricSet{m: map[string]metricValue{}, units: map[string]string{}}
	for _, d := range defs {
		ms.units[d.Name] = d.Unit
	}
	return ms
}

func (ms *metricSet) set(name string, v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		ms.fail(name, fmt.Errorf("nothing to measure"))
		return
	}
	ms.m[name] = metricValue{Value: &v, Unit: ms.units[name]}
}

func (ms *metricSet) fail(name string, err error) {
	ms.m[name] = metricValue{Unit: ms.units[name], Reason: err.Error()}
	ms.problems = append(ms.problems, fmt.Sprintf("%s: %v", name, err))
}

// minPasses is the fewest passes an untraced run makes. Operation
// latencies and throughput are taken from the fastest pass of each
// operation: the machines this runs on share memory bandwidth with other
// tenants, and their interference only ever slows a pass down.
const minPasses = 3

// extraSetups is how many set-ups a run makes besides one per pass;
// setup_s is the median of all of them.
const extraSetups = 8

// runWorkload runs one workload. With tracing off it repeats a pass over
// the same operations (setting the workload up afresh each time) until
// the run's seconds are used, and reports the end-to-end metrics; every
// pass must produce the same output digest. With tracing on it runs one
// untraced pass, a traced pass over the same operations and the layer
// probes, and reports the per-layer metrics.
func runWorkload(cfg runConfig) (runDetail, result, error) {
	w, err := workloadByName(cfg.workload)
	if err != nil {
		return runDetail{}, result{}, err
	}
	if err := os.MkdirAll(cfg.workDir, 0o755); err != nil {
		return runDetail{}, result{}, err
	}
	dir, err := os.MkdirTemp(cfg.workDir, "run-")
	if err != nil {
		return runDetail{}, result{}, err
	}
	defer os.RemoveAll(dir)
	e := env{seed: cfg.seed, j: cfg.j, dir: dir}
	clients := w.clients(cfg.j)
	n := cfg.ops
	if n == 0 {
		n = w.passOps
	}
	detail := runDetail{Header: newHeader(cfg), Workload: w.name, Traced: cfg.trace, Ops: n}

	var (
		passes   []pass
		setups   []float64
		failures []string
		start    = time.Now()
	)
	setup := func() (runner, error) {
		t0 := time.Now()
		r, err := w.setup(e, nil)
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		return r, nil
	}
	// Set-up takes milliseconds, so it is sampled more often than passes
	// repeat: these extra set-ups are torn down unused.
	for k := 0; k < extraSetups; k++ {
		r, err := setup()
		if err != nil {
			return detail, result{}, err
		}
		if err := r.close(); err != nil {
			return detail, result{}, err
		}
	}
	for {
		r, err := setup()
		if err != nil {
			return detail, result{}, err
		}
		p := runPass(r, clients, n, nil, "")
		if err := r.close(); err != nil {
			return detail, result{}, err
		}
		failures = append(failures, p.failures()...)
		if d := p.digest(); len(passes) == 0 {
			detail.Digest = d
		} else if d != detail.Digest {
			failures = append(failures, fmt.Sprintf("pass %d digest %s differs from pass 1's %s", len(passes)+1, d, detail.Digest))
		}
		passes = append(passes, p)
		if cfg.trace || len(passes) >= minPasses && time.Since(start)+p.wall > time.Duration(cfg.seconds*float64(time.Second)) {
			break
		}
	}
	detail.Passes = len(passes)
	detail.PeakRSSMB = peakRSSMB()

	var ms *metricSet
	if !cfg.trace {
		ms = newMetricSet(endToEnd)
		ms.set("setup_s", median(setups))
		lat := make([]float64, n)
		best := passes[0].wall
		for k, p := range passes {
			for i, l := range p.lat {
				if k == 0 || l < lat[i] {
					lat[i] = l
				}
			}
			best = min(best, p.wall)
		}
		for _, q := range []struct {
			name string
			p    float64
		}{{"op_ms_p50", 50}, {"op_ms_p90", 90}} {
			if v, err := percentile(lat, q.p); err != nil {
				ms.fail(q.name, err)
			} else {
				ms.set(q.name, v)
			}
		}
		ms.set("ops_per_s", ratio(float64(n), best.Seconds()))
		decided, units := 0, 0
		for _, o := range passes[0].res {
			decided += o.decided
			units += o.units
		}
		ms.set("decided_ratio", ratio(float64(decided), float64(units)))
	} else {
		ms = newMetricSet(perLayer)
		traced, err := tracedPass(w, e, cfg, clients, n, ms)
		if err != nil {
			return detail, result{}, err
		}
		detail.TracedDigest = traced.digest()
		failures = append(failures, traced.failures()...)
		if detail.TracedDigest != detail.Digest {
			failures = append(failures, fmt.Sprintf("traced digest %s differs from untraced %s", detail.TracedDigest, detail.Digest))
		}
		ms.set("trace.overhead_ratio", ratio(traced.wall.Seconds(), passes[0].wall.Seconds()))
	}

	failed := 0
	for _, p := range passes {
		for _, o := range p.res {
			if o.err != nil {
				failed++
			}
		}
	}
	failures = append(failures, ms.problems...)
	detail.Failures = failures
	return detail, result{
		Correct:   len(failures) == 0,
		Attempted: n * len(passes),
		Failed:    failed,
		Metrics:   ms.m,
	}, nil
}

// tracedPass reruns the untraced pass's operations with the benchmark's
// spans on (and, where the operations take one, a trace.Tracer and
// telemetry.Metrics per synthesis run), then runs the layer probes on the
// workload's inputs. Layers the workload's operations do not reach through
// an instrumentable call are measured by probes over the same inputs; the
// serve layer of a workload without a server is measured on the service
// mix, and the spec layer of a workload without specifications on the
// Table 3 corpus.
func tracedPass(w *workload, e env, cfg runConfig, clients, count int, ms *metricSet) (pass, error) {
	sp := newSpans()
	acc := newSynthAcc(e.j)
	r, err := w.setup(e, acc)
	if err != nil {
		return pass{}, fmt.Errorf("setup: %w", err)
	}
	p := runPass(r, clients, count, sp, w.name+" traced pass")
	var st *serveStats
	if sr, ok := r.(*serviceRunner); ok {
		if st, err = sr.finish(); err != nil {
			return pass{}, err
		}
	} else if err := r.close(); err != nil {
		return pass{}, err
	}
	ts := r.targets()
	lim := cfg.probes

	if acc.runs == 0 {
		if acc, err = synthProbe(ts, e, 10*lim.budget, sp); err != nil {
			return pass{}, err
		}
	}
	acc.report(ms.set)
	if acc.dropped > 0 {
		fmt.Fprintf(os.Stderr, "bench: %d trace events dropped from full rings; phase numbers undercount\n", acc.dropped)
	}
	if st == nil {
		pr, err := newServiceRunner(e, serviceMix())
		if err != nil {
			return pass{}, err
		}
		runPass(pr, e.j, lim.serveOps, sp, "service probe")
		if st, err = pr.finish(); err != nil {
			return pass{}, err
		}
	}
	reportServe(st, ms.set, ms.fail)

	ms.set("interp.ns_per_step", interpProbe(ts, e.seed, lim.budget, sp))
	specTargets := ts
	if !hasSpec(ts) {
		cells, err := corpusCells(table3Models)
		if err != nil {
			return pass{}, err
		}
		specTargets = nil
		for _, c := range cells {
			specTargets = append(specTargets, target{name: c.name(), prog: c.prog, cfg: cellConfig(c, false)})
		}
	}
	ms.set("spec.ns_per_check", specProbe(specTargets, e.seed, lim.budget, sp))
	if v, err := collectProbe(ts, e.seed, 5*lim.budget, sp); err != nil {
		ms.fail("synth.collect_ns_per_violation", err)
	} else {
		ms.set("synth.collect_ns_per_violation", v)
	}
	ms.set("synth.observe_ns_per_exec", observeProbe(ts, e.seed, lim.budget, sp))
	if v, err := staticProbe(ts, sp); err != nil {
		ms.fail("staticanalysis.analyze_us_p50", err)
	} else {
		ms.set("staticanalysis.analyze_us_p50", v)
	}
	if us, p50, err := enumProbe(e.seed, lim.enumN, sp); err != nil {
		ms.fail("proggen.us_per_state", err)
		ms.fail("proggen.states_per_enum_p50", err)
	} else {
		ms.set("proggen.us_per_state", us)
		ms.set("proggen.states_per_enum_p50", p50)
	}
	if cfg.traceDir != "" {
		if err := os.MkdirAll(cfg.traceDir, 0o755); err != nil {
			return pass{}, err
		}
		path := filepath.Join(cfg.traceDir, fmt.Sprintf("%s-seed%d.json", w.name, e.seed))
		if err := sp.writeChrome(path); err != nil {
			return pass{}, fmt.Errorf("write trace: %w", err)
		}
	}
	return p, nil
}

func hasSpec(ts []target) bool {
	for _, t := range ts {
		if t.cfg.Criterion != spec.MemorySafety {
			return true
		}
	}
	return false
}

// peakRSSMB is the process's peak resident set size.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0 // informational only; JSON cannot carry NaN
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}
