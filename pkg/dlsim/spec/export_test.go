package spec

// The name lists Validate accepts, for names_test.go: the engine
// packages import this one, so the test that holds the two sides to one
// set has to live outside it.
var (
	KnownProtocols  = knownProtocols
	KnownDynamics   = knownDynamics
	KnownTransports = knownTransports
)
