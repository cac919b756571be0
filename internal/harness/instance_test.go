package harness

import (
	"runtime"
	"testing"
)

// TestSharedInstanceMatchesBuild locks the cache to the from-scratch
// construction: same edges, same assignment, same detector sets.
func TestSharedInstanceMatchesBuild(t *testing.T) {
	spec := InstanceSpec{N: 64, Tau: 1, Seed: 3}
	shared, err := SharedInstance(spec)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := BuildInstance(spec)
	if err != nil {
		t.Fatal(err)
	}
	if shared.Net.N() != fresh.Net.N() || shared.Net.G().M() != fresh.Net.G().M() ||
		shared.Net.GPrime().M() != fresh.Net.GPrime().M() {
		t.Fatalf("cached network differs from fresh build")
	}
	for v := 0; v < spec.N; v++ {
		if shared.Asg.ID(v) != fresh.Asg.ID(v) {
			t.Fatalf("assignment differs at node %d", v)
		}
		a, b := shared.Det.Set(v).IDs(), fresh.Det.Set(v).IDs()
		if len(a) != len(b) {
			t.Fatalf("detector set size differs at node %d", v)
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("detector set differs at node %d", v)
			}
		}
	}
}

// TestSharedInstancePointerIdentityUnderTrials exercises the singleflight
// contract under the trial scheduler's real concurrency (run with -race):
// every trial that asks for the same spec must receive pointer-identical
// Net/Asg/Det, including the trials racing on the very first build.
func TestSharedInstancePointerIdentityUnderTrials(t *testing.T) {
	spec := InstanceSpec{N: 48, Seed: 99}
	const trials = 64
	got, err := TrialsWorkers(trials, 8, func(trial int) (*Instance, error) {
		return SharedInstance(spec)
	})
	if err != nil {
		t.Fatal(err)
	}
	first := got[0]
	if first == nil {
		t.Fatal("nil instance")
	}
	for i, inst := range got {
		if inst.Net != first.Net || inst.Asg != first.Asg || inst.Det != first.Det {
			t.Fatalf("trial %d received a different instance (Net %p/%p Asg %p/%p Det %p/%p)",
				i, inst.Net, first.Net, inst.Asg, first.Asg, inst.Det, first.Det)
		}
	}
	// Distinct specs must not alias.
	other, err := SharedInstance(InstanceSpec{N: 48, Seed: 100})
	if err != nil {
		t.Fatal(err)
	}
	if other.Net == first.Net {
		t.Fatal("distinct specs share a network")
	}
}

// TestInstanceWeightTracksHeap checks the instance memo's weight against
// the heap an instance really occupies once H and the gray caches are
// built: within a factor of two either way, across sizes where the
// detector bitsets go from a minor to the dominant term.
func TestInstanceWeightTracksHeap(t *testing.T) {
	for _, spec := range []InstanceSpec{
		{N: 64, Seed: 5},
		{N: 256, Tau: 2, Seed: 5},
		{N: 256, GrayProb: -1, Seed: 5},
		{N: 1024, Seed: 5},
	} {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&before)
		inst, err := BuildInstance(spec)
		if err != nil {
			t.Fatal(err)
		}
		inst.H()
		inst.Net.GrayAdjacency()
		runtime.GC()
		runtime.ReadMemStats(&after)
		heap := int64(after.HeapAlloc) - int64(before.HeapAlloc)
		w := inst.bytes()
		runtime.KeepAlive(inst)
		t.Logf("%+v: weight %d, heap %d (%.2fx)", spec, w, heap, float64(w)/float64(heap))
		if w < heap/2 || w > 2*heap {
			t.Errorf("%+v: weight %d outside 0.5-2x of heap bytes %d", spec, w, heap)
		}
	}
}

// TestInstanceCacheBounded checks the memo's byte bound end to end: after
// a run of distinct instances the resident bytes stay within the budget,
// and an instance heavier than the whole budget (n=5120) is served but not
// retained, so the next getter rebuilds it.
func TestInstanceCacheBounded(t *testing.T) {
	if testing.Short() {
		t.Skip("builds an n=5120 instance")
	}
	for seed := uint64(0); seed < 48; seed++ {
		if _, err := SharedInstance(InstanceSpec{N: 256, Seed: 1000 + seed}); err != nil {
			t.Fatal(err)
		}
		if st := InstanceCache(); st.Bytes > InstanceCacheBudget || st.Bytes <= 0 {
			t.Fatalf("after %d instances: %d bytes resident, budget %d", seed+1, st.Bytes, InstanceCacheBudget)
		}
	}
	big := InstanceSpec{N: 5120, Seed: 5}
	before := InstanceCache()
	inst, err := SharedInstance(big)
	if err != nil {
		t.Fatal(err)
	}
	if w := inst.bytes(); w <= InstanceCacheBudget {
		t.Fatalf("n=5120 instance weighs %d, not over the %d budget", w, InstanceCacheBudget)
	}
	after := InstanceCache()
	if after.Builds != before.Builds+1 {
		t.Fatalf("builds went %d -> %d, want one build", before.Builds, after.Builds)
	}
	if after.Bytes > InstanceCacheBudget || after.Bytes != before.Bytes {
		t.Fatalf("resident bytes went %d -> %d across an over-budget instance", before.Bytes, after.Bytes)
	}
	again, err := SharedInstance(big)
	if err != nil {
		t.Fatal(err)
	}
	if again == inst {
		t.Fatalf("over-budget instance was retained")
	}
	if again.Net.G().M() != inst.Net.G().M() || again.Det.Set(0).Len() != inst.Det.Set(0).Len() {
		t.Fatalf("rebuilt instance differs from the first build")
	}
}
