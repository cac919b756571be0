package harness

import (
	"math/bits"
	"math/rand/v2"
	"sync"
	"sync/atomic"

	"dualradio/internal/detector"
	"dualradio/internal/dualgraph"
	"dualradio/internal/gen"
	"dualradio/internal/graph"
	"dualradio/internal/memo"
)

// InstanceSpec identifies the immutable, topology-determining inputs of a
// generated scenario: everything that shapes the (network, assignment,
// detector) triple and nothing else. Parameters that only affect a trial's
// execution — message bound, protocol constants, adversary — deliberately
// stay out of the key so sweeps over them share one instance.
type InstanceSpec struct {
	// N is the network size.
	N int
	// TargetDegree steers the reliable-graph degree (0 = generator default).
	TargetDegree float64
	// GrayProb is the gray-zone edge probability (0 = generator default,
	// negative = no unreliable edges).
	GrayProb float64
	// Tau selects the detector: 0 builds the 0-complete detector, positive
	// values a τ-complete detector with gray-first mistake placement.
	Tau int
	// Seed derives the construction RNG stream.
	Seed uint64
}

// Instance is the immutable scenario skeleton shared across trials: the
// network, the process-to-node assignment, and the link detector. None of
// the three is modified after construction by any consumer (processes clone
// detector sets before mutating), so a single instance may back any number
// of concurrent executions.
//
// The graph H derived from the triple is memoized with the instance and
// shared the same way (see H), and charged up front in the memo weight.
type Instance struct {
	Net *dualgraph.Network
	Asg *dualgraph.Assignment
	Det *detector.Detector

	hOnce sync.Once
	h     *graph.Graph
}

// H returns the Section 3 graph H induced by the instance's detector
// (mutual detector membership). Every verification pass consults it, so it
// is memoized with the instance rather than rebuilt per trial. The graph is
// immutable and shared; for an exact detector it is the network's G.
func (i *Instance) H() *graph.Graph {
	i.hOnce.Do(func() { i.h = detector.BuildH(i.Net, i.Asg, i.Det) })
	return i.h
}

// instanceStream is the PCG stream id of the construction RNG. It predates
// the cache (the experiment layer always seeded construction with it), so
// cached and from-scratch instances are byte-identical.
const instanceStream = 0x5EED

// BuildInstance constructs an instance from scratch: network generation,
// assignment shuffle, and detector placement all consume one seeded RNG
// stream, in that order.
func BuildInstance(spec InstanceSpec) (*Instance, error) {
	rng := rand.New(rand.NewPCG(spec.Seed, instanceStream))
	net, err := gen.RandomGeometric(gen.GeometricConfig{
		N:            spec.N,
		TargetDegree: spec.TargetDegree,
		GrayProb:     spec.GrayProb,
	}, rng)
	if err != nil {
		return nil, err
	}
	asg := dualgraph.RandomAssignment(spec.N, rng)
	var det *detector.Detector
	if spec.Tau == 0 {
		det = detector.Complete(net, asg)
	} else {
		det = detector.TauComplete(net, asg, spec.Tau, detector.PlaceGrayFirst, rng)
	}
	return &Instance{Net: net, Asg: asg, Det: det}, nil
}

// InstanceCacheBudget bounds the bytes the instance memo keeps resident.
// An instance weighs from ~31 KB at n=64 to ~64 MB at n=16384, so an entry
// count would either pin gigabytes of dead instances or thrash the small
// ones; 8 MiB holds about three and a half times the working set of the
// experiments' quick suite (39 instances, ~2.3 MB). Fresh-seed service
// traffic rarely reuses an instance, so past the budget the coldest are
// evicted, and an instance larger than the whole budget (n=5120 at the
// default degree already is; n=4096, at ~7.9 MB, is just under it) is
// shared by the trials that build it concurrently but not retained.
const InstanceCacheBudget = 8 << 20

// instances memoizes BuildInstance per spec, evicting cold entries;
// instanceBuilds counts the builds it ran.
var (
	instances      = memo.NewWeighted[InstanceSpec, *Instance](InstanceCacheBudget, (*Instance).bytes)
	instanceBuilds atomic.Int64
)

// SharedInstance returns the memoized instance for spec, building it on
// first use. Construction is deterministic in spec, so the cached triple is
// identical to a fresh BuildInstance; concurrent callers (trials fanned out
// by Trials) receive the same pointers via the cache's singleflight build.
// The memo is bounded by bytes (InstanceCacheBudget): an evicted or
// over-budget instance is rebuilt, bit-identically, on its next use.
func SharedInstance(spec InstanceSpec) (*Instance, error) {
	return instances.Get(spec, func() (*Instance, error) {
		instanceBuilds.Add(1)
		return BuildInstance(spec)
	})
}

// InstanceCacheStats is a snapshot of the instance memo.
type InstanceCacheStats struct {
	// Entries counts the resident keys, built or building.
	Entries int
	// Bytes is the weight of the built entries; it never exceeds
	// InstanceCacheBudget.
	Bytes int64
	// Builds counts the instances SharedInstance has built in this process.
	Builds int64
}

// InstanceCache returns a snapshot of the instance memo.
func InstanceCache() InstanceCacheStats {
	return InstanceCacheStats{Entries: instances.Len(), Bytes: instances.Weight(), Builds: instanceBuilds.Load()}
}

// entryBytes prices what every memo entry holds besides its arrays: the
// entry and map slot, and the headers of the instance's structs. A
// memoized build error weighs this much.
const entryBytes = 256

// bytes is the instance's memo weight: the heap its arrays occupy once
// every lazy structure is built, from each array's length and element
// size. It is computed when the build returns, so the lazily built H and
// gray caches are charged up front: H at its bound, G plus one edge per two
// detector mistakes (a mistaken H edge is a mutual mistake), and nothing
// when the detector is exact and H is G itself.
func (i *Instance) bytes() int64 {
	if i == nil {
		return entryBytes
	}
	n := int64(i.Net.N())
	csr := func(m int64) int64 { return 4*(n+1) + 8*m } // int32 offsets, 2m int32 neighbors
	g, gp := i.Net.G(), i.Net.GPrime()
	m := int64(g.M())
	b := int64(entryBytes) + csr(m)
	if gp != g {
		b += csr(int64(gp.M()))
	}
	gray := int64(gp.M()) - m
	b += 16 * gray                          // GrayEdges: one [2]int per edge
	b += 24*n + 2*8*gray                    // GrayAdjacency: a slice header per node, two arcs per edge
	b += 16 * n                             // coordinates
	b += 8*n + 8*(n+1)                      // assignment: both directions of the bijection
	words := (n + 64) / 64                  // detector.NewSet's bitset length
	b += n * (8 + 32 + allocBytes(8*words)) // detector: pointer, Set header and bitset per node
	if i.Det.Exact(i.Net, i.Asg) {
		return b // H is G
	}
	detIDs := int64(0)
	for _, s := range i.Det.Sets() {
		detIDs += int64(s.Len())
	}
	return b + csr(m+max(detIDs-2*m, 0)/2) // H
}

// allocBytes rounds a small allocation up to the Go allocator's size-class
// spacing: one eighth of the power of two at or below it, and at least 16
// bytes. That matches the classes from 16 bytes to 32 KiB to within one
// class. Only the detector's n bitsets are small and numerous enough for
// the rounding to matter: it adds ~10% to them, a few percent to a large
// instance.
func allocBytes(b int64) int64 {
	step := max(int64(1)<<(bits.Len64(uint64(b))-1)>>3, 16)
	return (b + step - 1) / step * step
}
