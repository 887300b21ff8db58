// Command perfbench is the carriersense benchmark: one workload per
// invocation, run as a closed loop of passes through engine.Run, with
// the outputs checked and the metrics printed as a table and, on the
// last line, as one JSON object.
//
//	perfbench -root . -cs .bench_build/cs --workload figures --seed 1 --seconds 16 --trace 0
//
// perfbench/run.sh builds both binaries and supplies -root and -cs.
// --trace 0 reports the end-to-end metrics; --trace 1 alternates
// untraced and traced passes and reports the per-layer ledger, the
// wall-time decomposition and the tracing overhead. README.md lists
// every metric.
package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"sort"
	"strconv"
	"syscall"
	"time"

	"carriersense/internal/cache"
	"carriersense/internal/engine"
	_ "carriersense/internal/experiments" // registers the scenario catalog
	"carriersense/internal/montecarlo"
	"carriersense/internal/obs"
)

// config is one invocation's flags.
type config struct {
	workload string
	seed     uint64
	seconds  float64
	trace    int
	root     string // checkout root; scratch lives under .bench_build
	csBin    string
	probe    bool   // child mode: set up, report ready, exit
	cacheDir string // probe of a warm workload: the filled cache directory
}

// A run sets up from scratch at least setupProbes times, and for at
// least setupProbeTime, to time setup_s (the median is reported). A
// cheap set-up is repeated more often, so that a burst of load from
// other tenants of the machine covers only a few of its probes.
const (
	setupProbes    = 15
	setupProbeTime = 2 * time.Second
)

// minPasses is the fewest timed passes a run makes, however long they
// take.
const minPasses = 3

func main() {
	start := time.Now()
	os.Exit(run(start, os.Args[1:], os.Stdout, os.Stderr))
}

// run is the command; start is when main began (a set-up probe times
// from there).
func run(start time.Time, args []string, stdout, stderr io.Writer) int {
	var cfg config
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&cfg.workload, "workload", "", "workload to run")
	fs.Uint64Var(&cfg.seed, "seed", 1, "seed for every scenario of the workload")
	fs.Float64Var(&cfg.seconds, "seconds", 10, "how long to run timed passes")
	fs.IntVar(&cfg.trace, "trace", 0, "0: end-to-end metrics; 1: per-layer metrics from traced passes")
	fs.StringVar(&cfg.root, "root", ".", "checkout root (scratch goes to its .bench_build/)")
	fs.StringVar(&cfg.csBin, "cs", "", "cs binary for the fleet's workers")
	fs.BoolVar(&cfg.probe, "probe", false, "internal: time one set-up and exit")
	fs.StringVar(&cfg.cacheDir, "cache", "", "internal: the cache directory a fleet-warm probe replays")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, err := findWorkload(cfg.workload)
	if err == nil && (cfg.trace != 0 && cfg.trace != 1) {
		err = fmt.Errorf("-trace must be 0 or 1, got %d", cfg.trace)
	}
	if err == nil && cfg.seconds <= 0 {
		err = fmt.Errorf("-seconds must be > 0, got %g", cfg.seconds)
	}
	if err == nil && w.mode != local && cfg.csBin == "" {
		err = fmt.Errorf("workload %s needs -cs (the cs binary its fleet runs)", w.name)
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	scratch := filepath.Join(cfg.root, ".bench_build", "scratch", strconv.Itoa(os.Getpid()))
	if err := os.MkdirAll(scratch, 0o755); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(scratch)

	if cfg.probe {
		if err := probe(ctx, cfg, w, scratch, start, stdout); err != nil {
			fmt.Fprintln(stderr, "perfbench: set-up probe:", err)
			return 1
		}
		return 0
	}
	rep, err := bench(ctx, cfg, w, scratch, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	rep.print(stdout)
	return 0
}

// env is a workload's long-lived set-up: the pool width, the fleet
// when the workload has one, and the directory a warm workload
// replays.
type env struct {
	cfg     config
	w       workload
	scratch string
	fleet   *fleet
	filled  string // fleetWarm: the cache directory the passes replay
	dirs    int
}

// setup pins the pool width and, for the fleet workloads, starts the
// fleet.
func setup(ctx context.Context, cfg config, w workload, scratch string) (*env, error) {
	if err := montecarlo.SetMaxWorkers(width); err != nil {
		return nil, err
	}
	e := &env{cfg: cfg, w: w, scratch: scratch}
	if w.mode != local {
		f, err := startFleet(ctx, cfg.csBin, fleetWorkers)
		if err != nil {
			return nil, err
		}
		e.fleet = f
	}
	return e, nil
}

func (e *env) close() { e.fleet.close() }

// freshDir returns a new, not yet created directory under scratch.
func (e *env) freshDir(kind string) string {
	e.dirs++
	return filepath.Join(e.scratch, fmt.Sprintf("%s-%d", kind, e.dirs))
}

// chain is one pass's executor chain: the seam the engine calls, the
// seam under the cache (fleet modes), and the cache directory.
type chain struct {
	outer, inner *seam
	dir          string
}

// newChain builds a fresh chain for mode m. Local chains end in the
// in-process pool; fleet chains put a new cache executor (on a fresh
// directory for cold passes, on the filled one for warm passes) in
// front of the fleet.
func (e *env) newChain(m mode, detail bool) chain {
	if m == local {
		return chain{outer: newSeam(nil, detail)}
	}
	c := chain{inner: newSeam(e.fleet.remote, detail)}
	c.dir = e.filled
	if m == fleetCold {
		c.dir = e.freshDir("cache")
	}
	c.outer = newSeam(cache.New(c.inner, cache.Options{Dir: c.dir}), detail)
	c.outer.below = c.inner
	return c
}

// pass is one measured (or reference) pass.
type pass struct {
	wall    time.Duration
	cpu     time.Duration // coordinator and fleet workers, steal left out
	mem     memory        // the coordinator's peak during the pass
	digest  string
	results [][]*engine.Result
	c       chain
	reg     scrape // coordinator registry delta
	workers scrape // fleet workers' registry delta (traced passes)
	spans   []obs.TraceEvent
	bytes   int64 // cache bytes written (cold passes)
}

// runPass runs every step of the workload once through chain c. With
// outDir set, each step also writes its artifacts there.
func (e *env) runPass(ctx context.Context, c chain, outDir string, traced bool) (*pass, error) {
	p := &pass{c: c, results: make([][]*engine.Result, len(e.w.steps))}
	var workersPre []scrape
	if traced && e.fleet != nil {
		var err error
		if workersPre, err = e.scrapeWorkers(ctx); err != nil {
			return nil, err
		}
	}
	pre, err := scrapeLocal()
	if err != nil {
		return nil, err
	}
	var tr *obs.Tracer
	if traced {
		tr = obs.NewTracer()
		obs.SetTracer(tr)
	}
	var workersCPU time.Duration
	if e.fleet != nil {
		if workersCPU, err = e.fleet.cpu(); err != nil {
			return nil, err
		}
	}
	if err := resetPeak(); err != nil {
		return nil, fmt.Errorf("reset the peak resident set: %w", err)
	}
	cpu0 := processSelfCPU()
	start := time.Now()
	var runErr error
	for i, st := range e.w.steps {
		opts := e.options(st, c.outer)
		if outDir != "" {
			opts.OutDir = stepDir(outDir, i)
		}
		p.results[i], runErr = engine.Run(ctx, st.scenario, opts)
		if runErr != nil {
			runErr = fmt.Errorf("%s: %w", st, runErr)
			break
		}
	}
	p.wall = time.Since(start)
	p.cpu = processSelfCPU() - cpu0
	if p.mem, err = readMemory(); err != nil {
		return nil, err
	}
	if e.fleet != nil {
		after, err := e.fleet.cpu()
		if err != nil {
			return nil, err
		}
		p.cpu += after - workersCPU
	}
	if traced {
		obs.SetTracer(nil)
		if p.spans, err = traceEvents(tr); err != nil {
			return nil, err
		}
	}
	post, err := scrapeLocal()
	if err != nil {
		return nil, err
	}
	p.reg = post.minus(pre)
	if workersPre != nil {
		post, err := e.scrapeWorkers(ctx)
		if err != nil {
			return nil, err
		}
		p.workers = scrape{}
		for i := range post {
			p.workers.add(post[i].minus(workersPre[i]))
		}
	}
	if c.dir != "" && c.dir != e.filled {
		// A cold pass's own directory: measure what it wrote, drop it.
		st, err := cache.StatDir(c.dir)
		if err != nil {
			return nil, err
		}
		p.bytes = st.Bytes
		_ = os.RemoveAll(c.dir)
	}
	if runErr != nil {
		return p, runErr
	}
	p.digest = digest(e.w.steps, p.results)
	return p, nil
}

// options are the engine options for one step through executor ex.
func (e *env) options(st step, ex montecarlo.Executor) engine.Options {
	return engine.Options{
		Seed:     strconv.FormatUint(e.cfg.seed, 10),
		Scale:    st.scale,
		Parallel: width,
		Executor: ex,
		Sampler:  st.sampler,
		RelErr:   st.relErr,
		Sets:     st.sets,
	}
}

func (e *env) scrapeWorkers(ctx context.Context) ([]scrape, error) {
	var out []scrape
	for _, url := range e.fleet.metricsURLs() {
		s, err := scrapeURL(ctx, url)
		if err != nil {
			return nil, fmt.Errorf("scrape fleet worker: %w", err)
		}
		out = append(out, s)
	}
	return out, nil
}

// traceEvents reads back a tracer's buffered events.
func traceEvents(tr *obs.Tracer) ([]obs.TraceEvent, error) {
	if n := tr.Dropped(); n > 0 {
		return nil, fmt.Errorf("tracer dropped %d events; the decomposition would be incomplete", n)
	}
	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		return nil, err
	}
	var doc struct {
		TraceEvents []obs.TraceEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		return nil, err
	}
	return doc.TraceEvents, nil
}

// digest fingerprints a pass's deterministic outputs: every result's
// rendered report and its result.json form.
func digest(steps []step, results [][]*engine.Result) string {
	h := sha256.New()
	for i, rs := range results {
		fmt.Fprintf(h, "step %s\n", steps[i])
		for _, r := range rs {
			js, err := json.Marshal(r)
			if err != nil {
				js = []byte(err.Error())
			}
			fmt.Fprintf(h, "%d\n%s\n%d\n%s\n", len(r.Text), r.Text, len(js), js)
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// tally counts what a run attempted and what failed: estimations (from
// the seam) plus checked passes.
type tally struct {
	attempted, failed int
	reasons           []string
}

func (t *tally) pass(err error) {
	t.attempted++
	if err != nil {
		t.failed++
		if len(t.reasons) < 5 {
			t.reasons = append(t.reasons, err.Error())
		}
	}
}

func (t *tally) estimations(s *seam) {
	if s == nil {
		return
	}
	t.attempted += s.calls
	t.failed += s.failed
}

// reference runs the untimed reference pass: on the local pool for
// every workload (so a fleet pass is compared with a local one), with
// artifacts, and checks its contents. It doubles as the warm-up.
func (e *env) reference(ctx context.Context, t *tally) (*pass, error) {
	dir := e.freshDir("reference")
	defer os.RemoveAll(dir)
	p, err := e.runPass(ctx, e.newChain(local, false), dir, false)
	if err != nil {
		return nil, fmt.Errorf("reference pass: %w", err)
	}
	t.estimations(p.c.outer)
	t.pass(checkReference(e.w.steps, p.results, dir))
	return p, nil
}

// warmFleet runs one untimed, checked cold pass through the fleet: it
// warms the workers and their connections, and its cache directory is
// the one a warm workload replays (e.filled).
func (e *env) warmFleet(ctx context.Context, ref *pass, t *tally) error {
	c := e.newChain(fleetCold, false)
	e.filled = c.dir
	p, err := e.runPass(ctx, c, "", false)
	if err != nil {
		return fmt.Errorf("fleet warm-up pass: %w", err)
	}
	t.estimations(p.c.outer)
	t.pass(sameOutput(ref, p))
	return nil
}

// sameOutput is the per-pass check: byte-identical to the reference.
func sameOutput(ref, p *pass) error {
	if p.digest != ref.digest {
		return fmt.Errorf("pass output differs from the reference pass (digest %.12s, reference %.12s)", p.digest, ref.digest)
	}
	return nil
}

// timedPass runs one timed pass and checks it. A pass that fails its
// check is counted and not timed (nil pass, nil error); an error means
// the run cannot go on. Fleet passes must also have left the
// coordinator's pool idle: a fleet that quietly ran work locally
// would not be measuring the fleet.
func (e *env) timedPass(ctx context.Context, ref *pass, traced bool, t *tally) (*pass, error) {
	p, err := e.runPass(ctx, e.newChain(e.w.mode, traced), "", traced)
	if p == nil || ctx.Err() != nil {
		return nil, errors.Join(err, ctx.Err())
	}
	if e.fleet != nil {
		if ferr := e.fleet.alive(); ferr != nil {
			return nil, ferr
		}
	}
	t.estimations(p.c.outer)
	if err == nil {
		err = sameOutput(ref, p)
	}
	if err == nil && e.fleet != nil {
		if n := p.reg.sum("cs_mc_shards_evaluated_total"); n != 0 {
			err = fmt.Errorf("fleet pass evaluated %g shards in the coordinator's pool", n)
		}
	}
	t.pass(err)
	if err != nil {
		return nil, nil
	}
	return p, nil
}

// bench is one full run: set-up, the reference pass, the set-up
// probes (untraced runs), then timed passes until the time is up.
func bench(ctx context.Context, cfg config, w workload, scratch string, stderr io.Writer) (*report, error) {
	rep := &report{cfg: cfg, w: w}
	e, err := setup(ctx, cfg, w, scratch)
	if err != nil {
		return nil, err
	}
	defer e.close()

	t := &rep.tally
	ref, err := e.reference(ctx, t)
	if err != nil {
		return nil, err
	}
	rep.ref = ref
	if e.fleet != nil {
		if err := e.warmFleet(ctx, ref, t); err != nil {
			return nil, err
		}
	}
	if cfg.trace == 0 {
		// After the warm-up, so a warm workload's probes replay the
		// directory it filled.
		start := time.Now()
		for i := 0; i < setupProbes || time.Since(start) < setupProbeTime; i++ {
			rep.setup.due()
			cpu, wall, err := timeProbe(ctx, cfg, e.filled)
			if err != nil {
				return nil, err
			}
			rep.setup.add(cpu.Seconds())
			rep.setupWalls = append(rep.setupWalls, wall.Seconds())
		}
		rep.setup.calibrate()
	}
	deadline := time.Now().Add(time.Duration(cfg.seconds * float64(time.Second)))
	for i := 0; ; i++ {
		traced := cfg.trace == 1 && i%2 == 1
		rep.cpu.due()
		p, err := e.timedPass(ctx, ref, traced, t)
		if err != nil {
			return nil, err
		}
		if p != nil {
			rep.add(p, traced)
		}
		if i+1 >= minPasses*(1+cfg.trace) && time.Now().After(deadline) {
			break
		}
	}
	rep.cpu.calibrate()
	if cfg.trace == 1 {
		rep.direct = directCalls(w, rep.firstReq, cfg.seed)
	}
	for _, r := range t.reasons {
		fmt.Fprintln(stderr, "perfbench: check failed:", r)
	}
	return rep, nil
}

// probe is the child side of a set-up measurement. From the start of
// main it sets the workload up as a fresh run does (pool, fleet, cache
// directory) and runs the workload's first step until its first
// estimation returns through the seam, then reports what that took and
// tears down.
func probe(ctx context.Context, cfg config, w workload, scratch string, start time.Time, stdout io.Writer) error {
	if w.mode == fleetWarm && cfg.cacheDir == "" {
		return fmt.Errorf("a %s probe needs -cache, the directory it replays", w.name)
	}
	e, err := setup(ctx, cfg, w, scratch)
	if err != nil {
		return err
	}
	defer e.close()
	e.filled = cfg.cacheDir
	c := e.newChain(w.mode, false)

	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	first := &firstResult{inner: c.outer, stop: cancel, fleet: e.fleet, ready: make(chan readyAt, 1)}
	st := w.steps[0]
	_, runErr := engine.Run(ctx, st.scenario, e.options(st, first))
	select {
	case r := <-first.ready:
		if r.err != nil {
			return r.err
		}
		fmt.Fprintf(stdout, "ready %d %d\n", r.at.Sub(start).Nanoseconds(), r.cpu.Nanoseconds())
		return nil
	default:
		return fmt.Errorf("%s returned no estimation: %v", st, runErr)
	}
}

// firstResult passes estimations through; when the first one returns
// it records the time and the CPU time spent so far, and cancels the
// rest of the run.
type firstResult struct {
	inner montecarlo.Executor
	stop  context.CancelFunc
	fleet *fleet
	ready chan readyAt // buffered 1
}

// readyAt is when a probe's first estimation returned, and the CPU
// time its process and its fleet's workers had spent by then.
type readyAt struct {
	at  time.Time
	cpu time.Duration
	err error
}

func (f *firstResult) EstimateVec(ctx context.Context, req montecarlo.Request) ([]montecarlo.Accumulator, error) {
	accs, err := f.inner.EstimateVec(ctx, req)
	if err == nil && len(f.ready) == 0 {
		r := readyAt{at: time.Now(), cpu: processSelfCPU()}
		if f.fleet != nil {
			workers, err := f.fleet.cpu()
			r.cpu += workers
			r.err = err
		}
		select {
		case f.ready <- r:
			f.stop()
		default:
		}
	}
	return accs, err
}

func processSelfCPU() time.Duration {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// timeProbe starts a probe child and returns its set-up: the CPU time
// the child (from its exec: runtime start-up, the package inits with
// the kernel and scenario registries, pool and fleet set-up) and its
// fleet's workers (their start-up, and the hello handshake when the
// first estimation reached them) had spent when the first estimation
// returned, and the child's wall time from main to then.
func timeProbe(ctx context.Context, cfg config, cacheDir string) (cpu, wall time.Duration, err error) {
	self, err := os.Executable()
	if err != nil {
		return 0, 0, err
	}
	cmd := exec.CommandContext(ctx, self, "-probe", "-workload", cfg.workload,
		"-seed", strconv.FormatUint(cfg.seed, 10), "-root", cfg.root, "-cs", cfg.csBin, "-cache", cacheDir)
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	var out, errBuf bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errBuf
	if err := cmd.Run(); err != nil {
		return 0, 0, fmt.Errorf("set-up probe failed (%v): %s", err, errBuf.String())
	}
	var wallNs, cpuNs int64
	if _, err := fmt.Sscanf(out.String(), "ready %d %d\n", &wallNs, &cpuNs); err != nil {
		return 0, 0, fmt.Errorf("set-up probe: no ready line in %q", out.String())
	}
	return time.Duration(cpuNs), time.Duration(wallNs), nil
}

// sortedKeys returns m's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
