package harness

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Trials runs count independent trials concurrently across GOMAXPROCS
// workers and returns their results in trial order. It is the one trial
// scheduler, behind both the experiment layer and
// scenario.Compiled.RunWithOptions: each trial derives all of its
// randomness from its own index (per-trial PCG streams), so trials share
// no state and the results — and therefore every table and metric reduced
// from them in index order — are bit-identical to a sequential loop,
// regardless of worker count or interleaving.
//
// On failure Trials returns the first error in trial order — the same error
// the equivalent sequential loop would have surfaced — after letting every
// trial finish, so even the failure mode is schedule-independent.
func Trials[T any](count int, fn func(trial int) (T, error)) ([]T, error) {
	return TrialsWorkers(count, runtime.GOMAXPROCS(0), fn)
}

// TrialsWorkers is Trials with an explicit worker count (minimum 1). The
// result is identical for every worker count; workers only change the
// schedule.
func TrialsWorkers[T any](count, workers int, fn func(trial int) (T, error)) ([]T, error) {
	if count <= 0 {
		return nil, nil
	}
	if workers > count {
		workers = count
	}
	results := make([]T, count)
	errs := make([]error, count)
	if workers > 1 {
		var next atomic.Int64
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					i := int(next.Add(1)) - 1
					if i >= count {
						return
					}
					results[i], errs[i] = fn(i)
				}
			}()
		}
		wg.Wait()
	} else {
		for i := 0; i < count; i++ {
			results[i], errs[i] = fn(i)
		}
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return results, nil
}
