// Package conc holds the one concurrency primitive constraint emission
// and deploy-plan construction share: a bounded worker pool over an
// index space — n independent items, w workers pulling the next index
// from an atomic counter.
package conc

import (
	"sync"
	"sync/atomic"
)

// ParallelFor invokes fn(i) for every i in [0, n), spread over at most
// workers goroutines pulling indices from a shared atomic counter.
// workers ≤ 1 (or n ≤ 1) degenerates to a plain sequential loop on the
// calling goroutine — no goroutines, no synchronization. ParallelFor
// returns when every call has returned. fn must be safe to call
// concurrently for distinct indices.
func ParallelFor(n, workers int, fn func(int)) {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
}
