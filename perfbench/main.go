// Command perfbench is the repository benchmark. It drives the simulation
// service (sweeps POSTed to an in-process radiod through to their CSV
// reports), the opt-in leap engine, and the -quick experiment suite through
// fixed-shape workloads, checks every op's output, and prints the
// end-to-end metrics — or, with --trace 1, the per-layer metrics — as one
// JSON object on its last line. Run it through run.sh, which builds it:
//
//	bash perfbench/run.sh --workload sweep-cold --seed 1 --seconds 20 --trace 0
//
// Load is a closed loop with one client. Workload reasons and metric names
// and units come from BENCHMARK.json. See README.md for the workloads, the
// metrics, and which per-layer metric should move which end-to-end one.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"hash"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// processStart stands in for process start: the first set-up round is
// timed from here, so setup_s covers runtime start-up too.
var processStart = time.Now()

// workload is the state of one run: built by a set-up, then driven one op
// at a time.
type workload interface {
	// op runs op i and checks its output, returning the output bytes the
	// run digest covers. tr is nil for untraced ops.
	op(i int, tr *tracer) ([]byte, error)
	close()
}

// prober is a workload with server-side counters to read.
type prober interface {
	probe() (map[string]float64, error)
}

type workloadDef struct {
	name string
	// window is the number of ops whose outputs form the run digest and,
	// in a traced run, whose exact counts must repeat across runs.
	window int
	// block is how many untraced, then traced, ops alternate in a traced
	// run.
	block int
	start func(env) (workload, error)
}

var workloads = []workloadDef{
	{"sweep-cold", 8, 4, startSweepCold},
	{"trials-leap", 8, 2, startTrialsLeap},
	{"experiments-quick", 1, 1, startExperiments},
}

// spec is the part of BENCHMARK.json the benchmark prints from, so workload
// reasons and metric names and units have one source.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []declared `json:"end_to_end"`
	PerLayer []declared `json:"per_layer"`
}

type declared struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func loadSpec(path string) (*spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s spec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// env is what a set-up round builds its workload from.
type env struct {
	seed   uint64
	round  int    // set-up round: each builds fresh state from fresh inputs
	work   string // scratch directory inside the checkout
	traced bool
}

// warmIndex is the op index of set-up op j. Set-up indices are negative,
// so warm-up inputs never repeat a timed op's.
func (e env) warmIndex(j int) int { return -(e.round*100 + j + 1) }

func (e env) dataDir() string {
	return filepath.Join(e.work, fmt.Sprintf("data-%d-%d", os.Getpid(), e.round))
}

// opSeed derives op i's input seed from the workload seed (splitmix64).
// Seeds stay below 2^52, so any JSON reader keeps them exact.
func opSeed(seed uint64, i int) uint64 {
	x := seed*0x9e3779b97f4a7c15 + uint64(i)
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x>>12 | 1
}

const (
	// setupRounds is how many times an untraced run sets up; setup_s is
	// the median.
	setupRounds = 3
	// tracedFirst is the op index of a run's first traced op, fixed so the
	// count window covers the same inputs in every run of one seed.
	tracedFirst = 1 << 20
	// rateChunks is how many consecutive stretches of ops ops_per_s takes
	// the median over.
	rateChunks = 16
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// fill sets and prints one result metric per declared metric, 0 where
// values lacks it, and fails on a value no declaration names.
func (r *result) fill(decl []declared, values map[string]float64) error {
	known := make(map[string]bool)
	for _, d := range decl {
		known[d.Name] = true
		r.Metrics[d.Name] = metric{values[d.Name], d.Unit}
		fmt.Printf("  %-28s %14.6g %s\n", d.Name, values[d.Name], d.Unit)
	}
	var extra []string
	for name := range values {
		if !known[name] {
			extra = append(extra, name)
		}
	}
	if len(extra) > 0 {
		sort.Strings(extra)
		return fmt.Errorf("metrics not declared in BENCHMARK.json: %s", strings.Join(extra, ", "))
	}
	return nil
}

func main() {
	var (
		name    = flag.String("workload", "", "workload name (sweep-cold, trials-leap, experiments-quick)")
		seed    = flag.Uint64("seed", 1, "workload seed: the same seed gives the same op inputs")
		seconds = flag.Float64("seconds", 20, "measured seconds")
		trace   = flag.Int("trace", 0, "1 prints per-layer metrics from a traced run instead of end-to-end ones")
		work    = flag.String("work", ".bench_build/perfbench", "scratch directory for data dirs, spans and per-seed records")
		bench   = flag.String("benchmark", "BENCHMARK.json", "the benchmark declaration: workload reasons, metric names and units")
	)
	flag.Parse()
	sp, err := loadSpec(*bench)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	res, err := run(sp, *name, *seed, time.Duration(*seconds*float64(time.Second)), *trace == 1, *work)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

func run(sp *spec, name string, seed uint64, dur time.Duration, traced bool, work string) (*result, error) {
	var def *workloadDef
	for i := range workloads {
		if workloads[i].name == name {
			def = &workloads[i]
		}
	}
	why := ""
	var names []string
	for _, w := range sp.Workloads {
		names = append(names, w.Name)
		if w.Name == name {
			why = w.Why
		}
	}
	if def == nil || why == "" {
		return nil, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(names, ", "))
	}
	if err := os.MkdirAll(work, 0o755); err != nil {
		return nil, err
	}
	bin, err := binaryID()
	if err != nil {
		return nil, err
	}
	fmt.Printf("workload: %s seed=%d seconds=%g trace=%v\n  why: %s\n", def.name, seed, dur.Seconds(), traced, why)
	fmt.Println("regime:", regime(work))
	fmt.Println("load: closed loop, 1 client")

	rounds := setupRounds
	if traced {
		rounds = 1
	}
	// Rounds count down, so the kept set-up is round 0 in both modes.
	var w workload
	var setups []float64
	for r := rounds - 1; r >= 0; r-- {
		t := time.Now()
		if r == rounds-1 {
			t = processStart
		}
		if w, err = def.start(env{seed: seed, round: r, work: work, traced: traced}); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t).Seconds())
		if r > 0 {
			w.close()
		}
	}
	defer w.close()

	res := &result{Metrics: make(map[string]metric)}
	plain := newPhase(1, def.window, nil)
	var rec record
	if !traced {
		for plain.due(dur) {
			plain.step(w)
		}
		rss, err := peakRSS()
		if err != nil {
			return nil, err
		}
		report(plain, setups, rss)
		if err := res.fill(sp.EndToEnd, map[string]float64{
			"setup_s":     median(setups),
			"ops_per_s":   plain.opsPerS(),
			"op_p50_ms":   median(plain.lat),
			"peak_rss_mb": rss,
		}); err != nil {
			return nil, err
		}
	} else {
		m, tp, err := tracedRun(w, plain, def.window, def.block, dur)
		if err != nil {
			return nil, err
		}
		if err := res.fill(sp.PerLayer, m); err != nil {
			return nil, err
		}
		res.Attempted, res.Failed = len(tp.lat), tp.failed
		rec.Counts = tp.tr.counts
		path := filepath.Join(work, fmt.Sprintf("spans-%s-%d.json", def.name, seed))
		if err := tp.tr.write(path); err != nil {
			return nil, err
		}
		fmt.Printf("spans: %d written to %s\n", len(tp.tr.spans), path)
	}
	res.Attempted += len(plain.lat)
	res.Failed += plain.failed
	rec.Digest = plain.digest()
	fmt.Printf("digest: %s (outputs of untraced ops 1..%d)\n", rec.Digest, def.window)

	res.Correct = res.Failed == 0
	if err := rec.check(filepath.Join(work, fmt.Sprintf("record-%s-%d-%s.json", def.name, seed, bin))); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		res.Correct = false
	}
	return res, nil
}

// binaryID names the running build by a prefix of its executable's sha256,
// so per-seed records compare only runs of the same code.
func binaryID() (string, error) {
	path, err := os.Executable()
	if err != nil {
		return "", err
	}
	f, err := os.Open(path)
	if err != nil {
		return "", err
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil))[:16], nil
}

// phase is one kind of op in a run — untraced or traced — with its own op
// indices, latencies and Go runtime deltas.
type phase struct {
	next   int
	window int // the first window ops form the digest and count window
	tr     *tracer
	lat    []float64 // ms, in op order
	spent  time.Duration
	failed int
	hash   hash.Hash
	alloc  float64 // heap bytes allocated during its ops
	gcs    float64 // GC cycles ended during its ops
}

func newPhase(first, window int, tr *tracer) *phase {
	return &phase{next: first, window: window, tr: tr, hash: sha256.New()}
}

// due reports whether the phase still has to run: until dur is spent and
// its window is complete.
func (p *phase) due(dur time.Duration) bool { return p.spent < dur || len(p.lat) < p.window }

// step runs and times the phase's next op.
func (p *phase) step(w workload) {
	i := p.next
	p.next++
	inWindow := len(p.lat) < p.window
	a0, g0 := goCounters()
	t := time.Now()
	p.tr.beginOp(i, inWindow)
	out, err := w.op(i, p.tr)
	p.tr.endOp()
	d := time.Since(t)
	a1, g1 := goCounters()
	p.alloc += a1 - a0
	p.gcs += g1 - g0
	p.spent += d
	p.lat = append(p.lat, float64(d)/1e6)
	if err != nil {
		p.failed++
		if p.failed <= 3 {
			fmt.Fprintf(os.Stderr, "perfbench: op %d: %v\n", i, err)
		}
	}
	if inWindow {
		p.hash.Write(out)
	}
}

// opsPerS is the phase's throughput: the median over sixteenths of its ops
// of each one's completed ops per second, so a stall in one stretch of
// the run moves it no more than it moves the median latency.
func (p *phase) opsPerS() float64 { return median(chunkRates(p.lat, rateChunks)) }

func (p *phase) digest() string { return hex.EncodeToString(p.hash.Sum(nil)) }

// tracedRun is a --trace 1 run: blocks of untraced and traced ops
// alternate, so both see the same process state and their throughputs
// give the tracing overhead. It returns every per-layer metric it can
// observe; metrics of layers the workload does not reach are absent.
func tracedRun(w workload, plain *phase, window, block int, dur time.Duration) (map[string]float64, *phase, error) {
	tp := newPhase(tracedFirst, window, newTracer())
	p, isProber := w.(prober)
	var a, k, e map[string]float64
	var err error
	if isProber {
		if a, err = p.probe(); err != nil {
			return nil, nil, err
		}
	}
	opsToWindow := 0 // ops of both kinds from the first probe to the count window's end
	for plain.spent+tp.spent < dur || tp.due(0) || plain.due(0) {
		for b := 0; b < block; b++ {
			plain.step(w)
		}
		for b := 0; b < block; b++ {
			tp.step(w)
			if len(tp.lat) == window {
				opsToWindow = len(plain.lat) + len(tp.lat)
				if isProber {
					if k, err = p.probe(); err != nil {
						return nil, nil, err
					}
				}
			}
		}
	}
	m := make(map[string]float64)
	if isProber {
		if e, err = p.probe(); err != nil {
			return nil, nil, err
		}
		serverLayers(m, a, k, e, opsToWindow, tp.tr)
	}
	tr := tp.tr
	for name, o := range tr.obs {
		m[name] = o.value()
	}
	delete(m, "op") // the root span; its throughput is trace.ops_per_s.traced
	for _, role := range leapRoles {
		if rounds := tr.obs["sim.phase_rounds."+role]; rounds != nil && rounds.sum > 0 {
			m["sim.ns_per_round."+role] = tr.spanSum("sim.engine_ms."+role) / rounds.sum
		}
		delete(m, "sim.phase_rounds."+role)
		for _, c := range []string{"rounds", "broadcasts", "collisions", "gray_activations"} {
			m["sim."+c+"."+role] = tr.counts["sim."+c+"."+role] / float64(window)
		}
	}
	if n := tr.counts["verify.trials"]; n > 0 {
		m["verify.valid_frac"] = tr.counts["verify.valid"] / n
	}
	n := float64(len(plain.lat))
	m["go.alloc_mb_per_op"] = plain.alloc / n / (1 << 20)
	m["go.gc_cycles_per_op"] = plain.gcs / n
	m["trace.ops_per_s.untraced"] = plain.opsPerS()
	m["trace.ops_per_s.traced"] = tp.opsPerS()
	m["trace.overhead_pct"] = 100 * (plain.opsPerS() - tp.opsPerS()) / plain.opsPerS()
	return m, tp, nil
}

// report prints every end-to-end metric with its unit, sample count and
// the run's quartiles, including the two the JSON line leaves out: the
// tail latency and the failed fraction.
func report(r *phase, setups []float64, rss float64) {
	q := func(v []float64) string {
		q1, q2, q3 := quartiles(v)
		return fmt.Sprintf("q1=%.6g median=%.6g q3=%.6g n=%d", q1, q2, q3, len(v))
	}
	fmt.Printf("  setup_s [s]          %s (set-ups)\n", q(setups))
	fmt.Printf("  ops_per_s [1/s]      %s (per sixteenth of the ops); overall %.6g over %.3fs\n",
		q(chunkRates(r.lat, rateChunks)), float64(len(r.lat))/r.spent.Seconds(), r.spent.Seconds())
	fmt.Printf("  op_ms [ms]           %s\n", q(r.lat))
	if pct, v, ok := tail(r.lat); ok {
		fmt.Printf("  op_tail_ms [ms]      %.6g at p%g, n=%d\n", v, pct, len(r.lat))
	} else {
		fmt.Printf("  op_tail_ms [ms]      omitted: %d ops leave no percentile above p90 with 10 ops beyond it\n", len(r.lat))
	}
	fmt.Printf("  peak_rss_mb [MB]     %.6g (VmHWM, n=1)\n", rss)
	fmt.Printf("  ops_failed_frac [1]  %.6g (%d of %d)\n", float64(r.failed)/float64(len(r.lat)), r.failed, len(r.lat))
}

// median is the middle value, or the mean of the middle two.
func median(v []float64) float64 {
	_, m, _ := quartiles(v)
	return m
}

// quartiles interpolates linearly between order statistics.
func quartiles(v []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	at := func(p float64) float64 {
		if len(s) == 0 {
			return math.NaN()
		}
		x := p * float64(len(s)-1)
		lo := int(math.Floor(x))
		if lo+1 >= len(s) {
			return s[lo]
		}
		return s[lo] + (x-float64(lo))*(s[lo+1]-s[lo])
	}
	return at(0.25), at(0.5), at(0.75)
}

// tail returns the latency at the highest of p99.9, p99, p95 and p90 that
// leaves at least 10 ops beyond it (nearest rank); none for under 100 ops.
func tail(lat []float64) (pct, v float64, ok bool) {
	s := append([]float64(nil), lat...)
	sort.Float64s(s)
	for _, p := range []float64{99.9, 99, 95, 90} {
		if float64(len(s))*(1-p/100) >= 10-1e-9 {
			rank := int(math.Ceil(p / 100 * float64(len(s))))
			return p, s[rank-1], true
		}
	}
	return 0, 0, false
}

// chunkRates splits the ops into k consecutive chunks and returns each
// chunk's throughput.
func chunkRates(lat []float64, k int) []float64 {
	if len(lat) < k {
		k = len(lat)
	}
	var rates []float64
	for c := 0; c < k; c++ {
		lo, hi := c*len(lat)/k, (c+1)*len(lat)/k
		var ms float64
		for _, l := range lat[lo:hi] {
			ms += l
		}
		rates = append(rates, float64(hi-lo)/(ms/1e3))
	}
	return rates
}

// peakRSS reads the process's peak resident set (VmHWM) in MB.
func peakRSS() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		var kb float64
		if _, err := fmt.Sscanf(line, "VmHWM: %f kB", &kb); err == nil {
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM in /proc/self/status")
}

// regime describes where the run happened: cores, Go, CPU, and the
// filesystem holding the data dirs.
func regime(work string) string {
	cpu := "unknown"
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				cpu = strings.TrimSpace(v)
				break
			}
		}
	}
	mode := "single-core"
	if runtime.GOMAXPROCS(0) > 1 {
		mode = "multicore"
	}
	return fmt.Sprintf("nproc=%d gomaxprocs=%d (%s) go=%s cpu=%q datadir_fs=%s",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), mode, runtime.Version(), cpu, fsType(work))
}

// fsType names the filesystem holding dir from its statfs magic.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch uint32(st.Type) {
	case 0x01021994:
		return "tmpfs"
	case 0xEF53:
		return "ext4"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	case 0x794C7630:
		return "overlayfs"
	}
	return fmt.Sprintf("0x%x", uint32(st.Type))
}

// record is what one run of a seed leaves for the next run of the same
// build: the output digest and the traced phase's exact counts. Every
// value both runs carry must match.
type record struct {
	Digest string             `json:"digest,omitempty"`
	Counts map[string]float64 `json:"counts,omitempty"`
}

// check compares r with the record at path, then merges r into it.
func (r record) check(path string) error {
	var prev record
	if data, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(data, &prev); err != nil {
			return fmt.Errorf("record %s: %w", path, err)
		}
	}
	var diffs []string
	if prev.Digest != "" && r.Digest != "" && prev.Digest != r.Digest {
		diffs = append(diffs, fmt.Sprintf("digest %s, earlier run %s", r.Digest, prev.Digest))
	}
	if prev.Digest == "" {
		prev.Digest = r.Digest
	}
	if len(r.Counts) > 0 {
		if prev.Counts == nil {
			prev.Counts = r.Counts
		}
		for name, v := range r.Counts {
			if pv, ok := prev.Counts[name]; !ok || pv != v {
				diffs = append(diffs, fmt.Sprintf("%s = %g, earlier run %g", name, v, pv))
			}
		}
		for name := range prev.Counts {
			if _, ok := r.Counts[name]; !ok {
				diffs = append(diffs, fmt.Sprintf("%s missing, earlier run %g", name, prev.Counts[name]))
			}
		}
	}
	if len(diffs) > 0 {
		sort.Strings(diffs)
		return fmt.Errorf("run differs from an earlier run of this seed and build: %s", strings.Join(diffs, "; "))
	}
	fmt.Printf("record: matches %s\n", path)
	data, err := json.MarshalIndent(prev, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
