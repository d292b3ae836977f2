package espice_test

import (
	"os/exec"
	"testing"
)

// TestBenchmarkModuleVets keeps the nested benchmark module
// (benchmarks/e2e, outside ./...) building against the packages it
// calls: `go vet -C benchmarks/e2e ./...` type-checks every file there,
// tests included. Skipped when no go toolchain is on PATH.
func TestBenchmarkModuleVets(t *testing.T) {
	goBin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go toolchain not on PATH")
	}
	out, err := exec.Command(goBin, "vet", "-C", "benchmarks/e2e", "./...").CombinedOutput()
	if err != nil {
		t.Fatalf("go vet -C benchmarks/e2e ./...: %v\n%s", err, out)
	}
}
