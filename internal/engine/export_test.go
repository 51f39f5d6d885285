package engine

// MLPFlopsPerIteration exposes the engines' dense FLOP count to the
// external engine_test package.
var MLPFlopsPerIteration = mlpFlopsPerIteration
