package dist

// Worker builders from the internal tests, shared with the external
// dist_test package.
var (
	StartGatedWorker = startGatedWorker
	StartDyingPair   = startDyingPair
)
