package core

import (
	"sync"
	"sync/atomic"
)

// maintWidth returns the fan-out width for maintenance work (Config
// MaintWorkers: 0 → default, negative → serial).
func (r *Repo) maintWidth() int {
	w := r.Config.MaintWorkers
	if w < 1 {
		return 1
	}
	return w
}

// MaintForEach runs fn(0..n-1) across the maintenance worker pool,
// returning the first error and abandoning undispatched indices once one
// occurs. With one worker (or n ≤ 1) it degenerates to the plain serial
// loop. fn must synchronise its own writes to shared state; the helper
// only guarantees each index is dispatched exactly once and that every
// in-flight fn has returned before MaintForEach does (so results written
// into per-index slots are safe to read without further locking).
func (r *Repo) MaintForEach(n int, fn func(int) error) error {
	w := r.maintWidth()
	if w > n {
		w = n
	}
	if w <= 1 {
		for i := 0; i < n; i++ {
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	}
	var (
		next    atomic.Int64
		failed  atomic.Bool
		errOnce sync.Once
		firstEr error
		wg      sync.WaitGroup
	)
	for k := 0; k < w; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !failed.Load() {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				if err := fn(i); err != nil {
					errOnce.Do(func() { firstEr = err })
					failed.Store(true)
					return
				}
			}
		}()
	}
	wg.Wait()
	return firstEr
}
