package geoblocks_test

import (
	"os"
	"os/exec"
	"testing"
)

// TestBenchModule vets and unit-tests bench/, the serving tier's
// benchmark. It is a Go module of its own (bench/go.mod, replace
// geoblocks => ../), so `go build ./... && go test ./...` here never
// compile it; this test is what makes a rename in internal/store, cover,
// resultcache or httpapi that breaks the bench fail tier-1. -short keeps
// the bench's daemon-starting quick pass out (run it with
// `bash bench/run.sh -quick`).
func TestBenchModule(t *testing.T) {
	for _, args := range [][]string{
		{"-C", "bench", "vet", "."},
		{"-C", "bench", "test", "-short", "."},
	} {
		cmd := exec.Command("go", args...)
		cmd.Env = append(os.Environ(), "GOTOOLCHAIN=local")
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("go %v: %v\n%s", args, err, out)
		}
	}
}
