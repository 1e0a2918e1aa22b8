package main

import (
	"errors"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// One misspelt name among good ones used to be skipped in silence (only
// an all-unknown list errored): any unknown name is exit 2, before the
// dataset is generated.
func TestUnknownExperimentRejected(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: builds the binary")
	}
	bin := filepath.Join(t.TempDir(), "snpbench")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	for _, list := range []string{"table2,typo", "typo", "phmm", ""} {
		var stdout, stderr strings.Builder
		cmd := exec.Command(bin, "-exp", list)
		cmd.Stdout, cmd.Stderr = &stdout, &stderr
		var exit *exec.ExitError
		if err := cmd.Run(); !errors.As(err, &exit) || exit.ExitCode() != 2 {
			t.Errorf("-exp %q: err = %v, want exit status 2", list, err)
		}
		if want := "unknown experiment"; !strings.Contains(stderr.String(), want) {
			t.Errorf("-exp %q: stderr lacks %q:\n%s", list, want, stderr.String())
		}
		if stdout.Len() != 0 {
			t.Errorf("-exp %q: ran something before rejecting the list:\n%s", list, stdout.String())
		}
	}
	// A good list runs, stamped with the host and the dispatched kernels.
	out, err := exec.Command(bin, "-exp", " table2 ").CombinedOutput()
	stamp := regexp.MustCompile(`(?m)^host: \d+ cores, GOMAXPROCS=\d+, phmm kernel (avx2|generic), prescreen kernel (avx2|generic), .* revision \S+$`)
	if err != nil || !stamp.Match(out) || !strings.Contains(string(out), "TABLE II") || strings.Contains(string(out), "dataset:") {
		t.Errorf("-exp table2: err = %v, output:\n%s", err, out)
	}
}
