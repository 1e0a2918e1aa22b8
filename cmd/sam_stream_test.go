package cmd_test

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// samPin is the SHA-256 of the -sam file gnumap-snp wrote for the
// dataset below when it still loaded the whole FASTQ for SAM export. The
// streamed second pass must write the same bytes at any worker count,
// on a read-split cluster and after a resume.
const samPin = "fc8a0ddb77747caa4846f2567969cf6f51730f3b5b555d36d77d58fd4791979b"

func TestCLISAMStreamsPinnedBytes(t *testing.T) {
	bins := buildTools(t)
	data := t.TempDir()
	run(t, filepath.Join(bins, "readsim"),
		"-out", data, "-length", "30000", "-snps", "4", "-coverage", "8", "-seed", "5")
	bin := filepath.Join(bins, "gnumap-snp")
	gnumap := func(tag string, extra ...string) string {
		t.Helper()
		return run(t, bin, append([]string{
			"-ref", filepath.Join(data, "reference.fa"), "-reads", filepath.Join(data, "reads.fq"),
			"-o", filepath.Join(data, tag+".vcf")}, extra...)...)
	}
	requirePin := func(tag string) {
		t.Helper()
		raw, err := os.ReadFile(filepath.Join(data, tag+".sam"))
		if err != nil {
			t.Fatal(err)
		}
		if sum := sha256.Sum256(raw); hex.EncodeToString(sum[:]) != samPin {
			t.Errorf("%s: SAM sha256 %x (%d bytes), want %s", tag, sum, len(raw), samPin)
		}
	}
	for _, tc := range []struct {
		tag   string
		extra []string
	}{
		{"w1", []string{"-workers", "1"}},
		{"w2", []string{"-workers", "2"}},
		{"nodes2", []string{"-workers", "1", "-nodes", "2", "-split", "read"}},
	} {
		gnumap(tc.tag, append([]string{"-sam", filepath.Join(data, tc.tag+".sam")}, tc.extra...)...)
		requirePin(tc.tag)
	}

	// A finished checkpointed run leaves its last periodic checkpoint (a
	// mid-run watermark) behind; the resumed run maps only the rest, and
	// its SAM pass still streams every read.
	ck := filepath.Join(data, "run.ckpt")
	gnumap("write", "-workers", "1", "-checkpoint", ck, "-checkpoint-every", "1000")
	stderr := gnumap("resume", "-workers", "1", "-checkpoint", ck, "-resume", "-sam", filepath.Join(data, "resume.sam"))
	if !strings.Contains(stderr, "resuming from") || strings.Contains(stderr, ": 0 reads already mapped") {
		t.Errorf("second run did not resume mid-run:\n%s", stderr)
	}
	requirePin("resume")
}

// -sam reads the FASTQ twice, so a -reads that can be read only once (a
// FIFO) is refused at startup, naming both flags, before anything opens
// it — an unguarded open would block on the pipe.
func TestCLISAMRefusesFIFO(t *testing.T) {
	bins := buildTools(t)
	data := t.TempDir()
	run(t, filepath.Join(bins, "readsim"),
		"-out", data, "-length", "20000", "-snps", "2", "-coverage", "2", "-seed", "3")
	fifo := filepath.Join(data, "reads.fifo")
	if out, err := exec.Command("mkfifo", fifo).CombinedOutput(); err != nil {
		t.Skipf("mkfifo: %v\n%s", err, out)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	out, err := exec.CommandContext(ctx, filepath.Join(bins, "gnumap-snp"),
		"-ref", filepath.Join(data, "reference.fa"), "-reads", fifo,
		"-sam", filepath.Join(data, "out.sam"), "-o", filepath.Join(data, "out.vcf")).CombinedOutput()
	if ctx.Err() != nil {
		t.Fatalf("-sam with a FIFO -reads was not refused at startup (killed after 30s):\n%s", out)
	}
	if err == nil {
		t.Fatalf("-sam with a FIFO -reads succeeded:\n%s", out)
	}
	for _, flag := range []string{"-sam", "-reads", "not a regular file"} {
		if !strings.Contains(string(out), flag) {
			t.Errorf("refusal does not name %q:\n%s", flag, out)
		}
	}
}
