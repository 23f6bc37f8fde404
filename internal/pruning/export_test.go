package pruning

// PruneOracle exposes the pre-probe Prune to the external test package,
// whose fixture tests and benchmarks import benchfix (which imports core,
// which imports pruning).
var PruneOracle = pruneOracle
