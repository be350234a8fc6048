package part

// SetMaxBatch lowers the edge-batch cap for one test and hands every
// delivered batch's partition, record count and bound to observe; it
// returns the function that restores both. Tests using it must not run in
// parallel.
func SetMaxBatch(n int, observe func(part, edges, upTo int)) (restore func()) {
	oldMax, oldObserve := maxBatch, observeBatch
	maxBatch, observeBatch = n, observe
	return func() { maxBatch, observeBatch = oldMax, oldObserve }
}
