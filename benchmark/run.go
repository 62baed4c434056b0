package main

import (
	"fmt"
	"sync"
	"time"
)

// instance is one set-up workload: a system under test with its
// members and drivers connected, ready to be driven.
type instance interface {
	system() *sut
	// op performs and verifies driver's next primary operation and
	// returns its latency.
	op(driver int) (opKind, time.Duration, error)
	// finish runs the end-of-run checks once the drivers have stopped
	// and returns every violation found.
	finish() []string
	// layers measures the workload's per-layer metrics: probes of each
	// layer's exported functions on this workload's inputs, then the
	// traced pass.
	layers(lr *layerRun)
	close()
}

// prepares maps a workload to its input generation: it makes, once and
// untimed, whatever inputs are expensive to make, and returns the set-up
// that setup_s times (build stores, store objects, start servers, dial,
// join).
var prepares = map[string]prepareFunc{
	wlConfChoice:    ungenerated(setupConfChoice),
	wlFetchHot:      prepareFetchHot,
	wlFetchColdRW:   prepareFetchColdRW,
	wlMultiresView:  prepareMultiresView,
	wlClusterChoice: ungenerated(setupClusterChoice),
}

type prepareFunc func(seed int64, smoke bool) (setup func() (instance, error), err error)

// ungenerated adapts a workload with nothing to make ahead of its
// set-up.
func ungenerated(setup func(seed int64) (instance, error)) prepareFunc {
	return func(seed int64, _ bool) (func() (instance, error), error) {
		return func() (instance, error) { return setup(seed) }, nil
	}
}

// newRunConfig is the shape of a measuring run, or of the smoke run
// that only checks the benchmark itself: 0.15 s windows, one set-up,
// short probes and traced pass.
func newRunConfig(seed int64, seconds int, trace, smoke bool) runConfig {
	cfg := runConfig{
		seed: seed, trace: trace, smoke: smoke, outDir: "out",
		warm:      2 * time.Second,
		window:    time.Duration(seconds) * time.Second / numWindows,
		minSetups: 5, maxSetups: 25, setupBudget: 500 * time.Millisecond,
	}
	if smoke {
		cfg.warm, cfg.window = 100*time.Millisecond, 150*time.Millisecond
		cfg.minSetups, cfg.maxSetups = 1, 1
	}
	return cfg
}

// runConfig is the shape of one run.
type runConfig struct {
	seed   int64
	warm   time.Duration
	window time.Duration
	// The system is built at least minSetups times and until the builds
	// have taken setupBudget together (at most maxSetups times), so a
	// set-up of a few milliseconds is sampled often enough for a steady
	// median. The last build is driven; setup_s is the median of all.
	minSetups, maxSetups int
	setupBudget          time.Duration
	trace                bool
	smoke                bool
	outDir               string
}

// result is everything one workload run reports.
type result struct {
	Workload  string           `json:"workload"`
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Samples   int              `json:"samples"` // successful primary ops timed over the windows
	Errors    []string         `json:"errors,omitempty"`
	EndToEnd  map[string]value `json:"end_to_end"`
	PerLayer  map[string]value `json:"per_layer,omitempty"`
	// HostSlowdown is the reference kernel's time over its nominal time,
	// per window: what the time-based end-to-end metrics were divided by.
	HostSlowdown value `json:"host_slowdown"`
}

// violate records a broken invariant: it fails the run even if every
// operation returned.
func (res *result) violate(msg string) {
	res.Errors = append(res.Errors, msg)
	res.Failed++
	res.Attempted++
	res.Correct = false
}

func runWorkload(name string, cfg runConfig) (*result, error) {
	prepare, ok := prepares[name]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", name)
	}
	setup, err := prepare(cfg.seed, cfg.smoke)
	if err != nil {
		return nil, fmt.Errorf("%s: generating inputs: %w", name, err)
	}
	var inst instance
	var setupTimes, setupSlowdown []float64
	kernel := newRefKernel()
	for total := time.Duration(0); len(setupTimes) < cfg.minSetups || (total < cfg.setupBudget && len(setupTimes) < cfg.maxSetups); {
		if inst != nil {
			inst.close()
		}
		before := kernel.slowdown()
		t0 := time.Now()
		if inst, err = setup(); err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", name, err)
		}
		took := time.Since(t0)
		total += took
		setupTimes = append(setupTimes, took.Seconds())
		setupSlowdown = append(setupSlowdown, (before+kernel.slowdown())/2)
	}
	defer inst.close()

	res := &result{Workload: name, EndToEnd: make(map[string]value)}
	rec := newRecorder()
	var errMu sync.Mutex
	noteError := func(err error) {
		errMu.Lock()
		if len(res.Errors) < 8 {
			res.Errors = append(res.Errors, err.Error())
		}
		errMu.Unlock()
	}
	var wg sync.WaitGroup
	for d := 0; d < numDrivers; d++ {
		wg.Add(1)
		go func(d int) {
			defer wg.Done()
			kernel := newRefKernel()
			lastKernel := time.Now()
			for !rec.stop.Load() {
				kind, took, err := inst.op(d)
				if err != nil {
					noteError(err)
				}
				rec.record(d, kind, took, err)
				if time.Since(lastKernel) >= refKernelEvery {
					rec.recordKernel(d, kernel.run())
					lastKernel = time.Now()
				}
			}
		}(d)
	}

	// Warm-up fills caches and finishes lazy set-up; then the windows.
	time.Sleep(cfg.warm)
	before := inst.system().counters()
	snaps := make([]procSnapshot, numWindows+1)
	snaps[0] = takeProcSnapshot()
	for w := 0; w < numWindows; w++ {
		rec.phase.Store(int32(w))
		time.Sleep(cfg.window)
		snaps[w+1] = takeProcSnapshot()
	}
	rec.phase.Store(-1)
	rec.stop.Store(true)
	wg.Wait()
	after := inst.system().counters()
	heap := liveHeapMiB()

	endToEnd(res, rec, snaps)
	for _, v := range inst.finish() {
		res.violate(v)
	}
	res.EndToEnd["heap_live_mb"] = value{Value: heap, Unit: "MiB"}
	res.EndToEnd["setup_s"] = atHostSpeed("s", setupTimes, setupSlowdown, false)
	res.EndToEnd["ok_share"] = value{Value: 1 - ratio(float64(res.Failed), float64(res.Attempted)), Unit: "ratio"}
	res.Correct = res.Failed == 0 && res.Attempted > 0

	if cfg.trace {
		lr := newLayerRun(name, cfg, inst.system(), rec, before, after, res)
		lr.common()
		inst.layers(lr)
		res.PerLayer = lr.finish()
	}
	return res, nil
}

// endToEnd folds the drivers' logs and the window snapshots into the
// windowed end-to-end metrics; the four that are times read as at the
// host's nominal speed.
func endToEnd(res *result, rec *recorder, snaps []procSnapshot) {
	var p50, p95, rate, cpu, alloc, wireKB []float64
	for w := 0; w < numWindows; w++ {
		var lat []float64
		for d := range rec.drivers {
			log := &rec.drivers[d]
			for _, byKind := range log.lat[w] {
				lat = append(lat, byKind...)
			}
			res.Attempted += log.attempted[w]
			res.Failed += log.failed[w]
		}
		res.Samples += len(lat)
		ops := float64(len(lat))
		a, b := snaps[w], snaps[w+1]
		p50 = append(p50, quantile(lat, 0.50))
		p95 = append(p95, quantile(lat, 0.95))
		rate = append(rate, ratio(ops, b.at.Sub(a.at).Seconds()))
		cpu = append(cpu, ratio(float64(b.cpu-a.cpu)/float64(time.Millisecond), ops))
		alloc = append(alloc, ratio(float64(b.allocBytes-a.allocBytes)/1024, ops))
		wireKB = append(wireKB, ratio(float64(b.wire-a.wire)/1024, ops))
	}
	slowdown := rec.hostSlowdown()
	res.HostSlowdown = windowed("ratio", slowdown)
	res.EndToEnd["op_p50_ms"] = atHostSpeed("ms", p50, slowdown, false)
	res.EndToEnd["op_p95_ms"] = atHostSpeed("ms", p95, slowdown, false)
	res.EndToEnd["ops_per_s"] = atHostSpeed("1/s", rate, slowdown, true)
	res.EndToEnd["cpu_ms_per_op"] = atHostSpeed("ms", cpu, slowdown, false)
	res.EndToEnd["alloc_kb_per_op"] = windowed("KiB", alloc)
	res.EndToEnd["wire_kb_per_op"] = windowed("KiB", wireKB)
}
