package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"time"
)

// Set-up is repeated and its median reported, because one ~0.4 s
// set-up on a shared host is too noisy to gate on. A traced run reports
// no set-up metric and builds once.
const setupRepeats = 5

// timedWindows is the number of equal windows the timed phase is cut
// into; the end-to-end throughput and latency figures are medians over
// them.
const timedWindows = 10

// warmupFrac is the untimed share of the budget that runs, at full
// concurrency, before the timed phase.
const warmupFrac = 0.05

// benchmarkFile is what the harness reads of ../BENCHMARK.json, the one
// place that lists the metrics a run prints, their units and the bounds
// of the end-to-end ones.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

type metricDef struct {
	Name  string  `json:"name"`
	Unit  string  `json:"unit"`
	Bound float64 `json:"bound"`
}

// readBenchmarkFile reads BENCHMARK.json from the repository root; the
// harness runs with bench/ as its working directory (go run -C bench).
func readBenchmarkFile() (benchmarkFile, error) {
	var bf benchmarkFile
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		return bf, err
	}
	if err := json.Unmarshal(raw, &bf); err != nil {
		return bf, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return bf, nil
}

// report gives the measured values the units BENCHMARK.json lists them
// with, and fails when either side has a metric the other lacks.
func report(values map[string]float64, defs []metricDef) (map[string]metric, error) {
	out := make(map[string]metric, len(defs))
	for _, d := range defs {
		v, ok := values[d.Name]
		if !ok {
			return nil, fmt.Errorf("BENCHMARK.json lists metric %s, which this run did not measure", d.Name)
		}
		out[d.Name] = metric{Value: v, Unit: d.Unit}
	}
	for name := range values {
		if _, ok := out[name]; !ok {
			return nil, fmt.Errorf("metric %s was measured but is not in BENCHMARK.json", name)
		}
	}
	return out, nil
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a run prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runInfo is the line printed before the result: where and how the
// numbers were taken.
type runInfo struct {
	Workload string                 `json:"workload"`
	Host     fingerprint            `json:"host"`
	Clients  int                    `json:"clients"`
	Samples  int                    `json:"samples"`
	Verified map[string]classDigest `json:"verified"`
	ClassP50 map[string]float64     `json:"class_p50_ms"`
	// The per-window series of the timed phase, in order; the end-to-end
	// figures are their medians. Drift and bursts of interference show
	// here.
	WindowOps []float64 `json:"window_ops_per_s,omitempty"`
	WindowP50 []float64 `json:"window_p50_ms,omitempty"`
	WindowP95 []float64 `json:"window_p95_ms,omitempty"`
	WindowRSS []float64 `json:"window_peak_rss_mb,omitempty"`
	Error     string    `json:"error,omitempty"`
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func closeClients(clients []*client) {
	for _, c := range clients {
		c.conn.Close()
	}
}

// nextRound rounds every client's step up to a schedule boundary, so a
// fresh set of clients starts on the slot its offset names.
func nextRound(steps []int) []int {
	out := make([]int, len(steps))
	for i, s := range steps {
		out[i] = (s + scheduleLen - 1) / scheduleLen * scheduleLen
	}
	return out
}

// runWorkload builds the workload's system from the seed, verifies it,
// measures it for the given time and returns the result and run info.
// An untraced run yields the end-to-end metrics; a traced run spends a
// quarter of the time untraced and a quarter traced, then replays the
// logged statements and geometries through the layers' own entry
// points, and yields the per-layer metrics.
func runWorkload(spec *workloadSpec, seed int64, seconds float64, traced, updateGolden bool, outDir string) (result, runInfo, error) {
	var res result
	info := runInfo{Workload: spec.name, Host: hostFingerprint(seed), Clients: numClients}
	bf, err := readBenchmarkFile()
	if err != nil {
		return res, info, err
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return res, info, err
	}

	var tr *tracer
	repeats := setupRepeats
	if traced {
		tr = newTracer()
		repeats = 1
	}
	var w *world
	var setups []setupTimes
	for i := 0; i < repeats; i++ {
		if w != nil {
			if err := w.close(); err != nil {
				return res, info, err
			}
		}
		var st setupTimes
		var err error
		if w, st, err = buildWorld(spec, tr, outDir); err != nil {
			return res, info, err
		}
		setups = append(setups, st)
	}
	defer func() { w.close() }()

	base := iterBase(seed)
	ref, err := setupReference(w.ds)
	if err != nil {
		return res, info, err
	}
	verified, verifyClient, err := verify(spec, w, ref, base)
	ref.close()
	if err == nil && seed == goldenSeed && !updateGolden {
		err = checkGolden(spec.name, verified)
	}
	info.Verified = verified
	res.Correct = err == nil
	if err != nil {
		info.Error = err.Error()
	}
	// Set-up and verification garbage is the harness's, not the
	// workload's: give it back before resident memory is watched.
	debug.FreeOSMemory()

	clients, err := connectClients(w, nil)
	if err != nil {
		return res, info, err
	}
	defer closeClients(clients)
	budget := time.Duration(seconds * float64(time.Second))
	steps := []int{verifyOps, verifyOps}
	warm, steps := runPhase(spec, w, clients, nil, base, steps, time.Duration(warmupFrac*float64(budget)))
	all := []*client{verifyClient}
	all = append(all, clients...)

	var timed, plain phaseResult
	var layer *layerInputs
	if !traced {
		peaks := watchPeakRSS(budget, timedWindows)
		timed, _ = runPhase(spec, w, clients, nil, base, steps, budget)
		info.WindowRSS = <-peaks
	} else {
		plain, steps = runPhase(spec, w, clients, nil, base, steps, budget/4)
		tclients, err := connectClients(w, tr)
		if err != nil {
			return res, info, err
		}
		defer closeClients(tclients)
		all = append(all, tclients...)
		before := snapshotCounters(w)
		var ms0, ms1 runtime.MemStats
		runtime.ReadMemStats(&ms0)
		timed, _ = runPhase(spec, w, tclients, tr, base, nextRound(steps), budget/4)
		runtime.ReadMemStats(&ms1)
		layer = &layerInputs{
			spec: spec, w: w, tr: tr, outDir: outDir,
			plain: plain, traced: timed,
			counters:   snapshotCounters(w).sub(before),
			allocBytes: ms1.TotalAlloc - ms0.TotalAlloc,
			setup:      setups[0],
			insertedIn: countInserted(tclients),
		}
	}
	res.Attempted = verifyOps
	for _, p := range []phaseResult{warm, plain, timed} {
		res.Attempted += p.attempted()
		res.Failed += p.failed
		if p.firstErr != nil && info.Error == "" {
			info.Error = p.firstErr.Error()
		}
	}
	info.Samples = len(timed.samples)
	info.ClassP50 = make(map[string]float64)
	for _, class := range spec.schedule {
		info.ClassP50[class] = timed.quantileMS(class, 0.5)
	}

	var dur durability
	if w.dataDir != "" {
		if dur, err = checkDurable(w, all); err != nil {
			res.Correct = false
			if info.Error == "" {
				info.Error = "durability: " + err.Error()
			}
		}
	}

	if !traced {
		var totals []float64
		for _, st := range setups {
			totals = append(totals, st.total.Seconds())
		}
		info.WindowOps, info.WindowP50, info.WindowP95 = timed.windowSeries(timedWindows)
		values := map[string]float64{
			"ops_per_s":   median(info.WindowOps),
			"p50_ms":      median(info.WindowP50),
			"p95_ms":      median(info.WindowP95),
			"setup_s":     median(totals),
			"peak_rss_mb": median(info.WindowRSS),
		}
		res.Metrics, err = report(values, bf.EndToEnd)
		return res, info, err
	}

	layer.durability = dur
	values, pressure, err := layerMetrics(layer)
	if err != nil {
		return res, info, err
	}
	if res.Metrics, err = report(values, bf.PerLayer); err != nil {
		return res, info, err
	}
	path := fmt.Sprintf("%s/trace-%s.json", outDir, spec.name)
	if err := tr.write(path, spec.name, info.Host, pressure); err != nil {
		return res, info, fmt.Errorf("write trace: %w", err)
	}
	return res, info, nil
}

// watchPeakRSS cuts the coming d into equal windows, restarts the
// resident-set high-water mark at the start of each and reads it at the
// end, and sends the per-window peaks when d has passed.
func watchPeakRSS(d time.Duration, windows int) <-chan []float64 {
	out := make(chan []float64, 1)
	start := time.Now()
	go func() {
		var peaks []float64
		for k := 1; k <= windows; k++ {
			resetPeakRSS()
			time.Sleep(time.Until(start.Add(d * time.Duration(k) / time.Duration(windows))))
			peaks = append(peaks, peakRSSMB())
		}
		out <- peaks
	}()
	return out
}

func countInserted(clients []*client) int {
	n := 0
	for _, c := range clients {
		n += c.inserted
	}
	return n
}
