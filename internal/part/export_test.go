package part

// SetMaxBatch lowers the edge-batch cap for one test and returns the
// function that restores it. Tests using it must not run in parallel.
func SetMaxBatch(n int) (restore func()) {
	old := maxBatch
	maxBatch = n
	return func() { maxBatch = old }
}
