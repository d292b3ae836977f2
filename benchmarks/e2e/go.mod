module repro/benchmarks/e2e

go 1.24

require repro v0.0.0

replace repro => ../..
