package rules

// GenerateOracle exposes the replaced Generate to the external test
// package, whose fixture test and benchmarks import benchfix (which
// imports rules).
var GenerateOracle = generateOracle
