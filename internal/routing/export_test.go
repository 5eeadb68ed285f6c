package routing

// RefCandidates exposes the reference candidate rule to the external
// cross-topology tests (package routing_test), which import core and
// faults and so cannot live in package routing.
var RefCandidates = refCandidates
