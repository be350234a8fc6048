package sim

import (
	"sync"
	"testing"
)

// TestStalledLocksAgainstHooks is the regression test for the driver's
// unlocked s.stall reads in drive/tick: simHooks.CertApply reads the
// stall pointer under mu from the certifier's goroutine, so the driver
// must too. The writer below plays the driver's stall/unstall role while
// the readers play concurrent hooks; under -race a stalled() that drops
// the lock fails this test immediately.
func TestStalledLocksAgainstHooks(t *testing.T) {
	s := &sim{}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 2000; i++ {
			s.mu.Lock()
			if s.stall == nil {
				s.stall = &stallState{from: i, released: make(chan struct{})}
			} else {
				s.stall = nil
			}
			s.mu.Unlock()
		}
		close(stop)
	}()
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					s.stalled()
				}
			}
		}()
	}
	wg.Wait()
	if s.stalled() {
		t.Fatalf("writer made an even number of toggles; stall should be lifted")
	}
}
