package oct

// PruneRecolor exposes the recoloring prune oracle to the circuit tests.
var PruneRecolor = pruneRecolor
