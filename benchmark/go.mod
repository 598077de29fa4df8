// The benchmark is a module of its own so it builds from its own build
// file; the replace directive points at the repository it measures.
module repro/benchmark

go 1.24

require repro v0.0.0

replace repro => ../
