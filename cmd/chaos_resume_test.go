// Process-level kill-and-recover chaos harness for the checkpoint/
// resume subsystem: run the real gnumap-snp binary, SIGKILL it at
// randomized points shortly after checkpoint commits, relaunch with
// -resume, and require the final VCF to be byte-identical to an
// uninterrupted run — in single-process (plain and with incremental
// calling on the same barrier) and np=4 read-split cluster modes. A
// separate test exercises the graceful path: SIGTERM drains,
// writes a final checkpoint, exits with code 3, and the resumed run
// completes identically.
package cmd_test

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"syscall"
	"testing"
	"time"
)

// buildChaosTools compiles the binaries with the race detector, so
// every kill-resume cycle also race-checks the quiesce barrier, the
// signal handler, and the cluster checkpoint rounds end-to-end.
func buildChaosTools(t *testing.T) string {
	t.Helper()
	if testing.Short() {
		t.Skip("short mode: skipping binary chaos test")
	}
	dir := t.TempDir()
	cmd := exec.Command("go", "build", "-race", "-o", dir+string(os.PathSeparator),
		"gnumap/cmd/readsim", "gnumap/cmd/gnumap-snp")
	cmd.Dir = ".."
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("go build -race: %v\n%s", err, out)
	}
	return dir
}

// chaosDataset generates the dataset once per test and returns the
// common gnumap-snp arguments for it.
func chaosDataset(t *testing.T, bins string, seed int) (dir string, common []string) {
	t.Helper()
	dir = t.TempDir()
	run(t, filepath.Join(bins, "readsim"),
		"-out", dir, "-length", "60000", "-snps", "6", "-coverage", "10",
		"-seed", fmt.Sprint(seed))
	common = []string{
		"-ref", filepath.Join(dir, "reference.fa"),
		"-reads", filepath.Join(dir, "reads.fq"),
		"-workers", "2",
	}
	return dir, common
}

// ckptSig fingerprints the checkpoint file's current committed version
// ("" when absent). WriteFile renames a fresh temp file over the path,
// so any new commit changes the signature.
func ckptSig(path string) string {
	fi, err := os.Stat(path)
	if err != nil {
		return ""
	}
	return fmt.Sprintf("%d/%d", fi.Size(), fi.ModTime().UnixNano())
}

// awaitNewCkpt polls until the checkpoint file's signature moves past
// prev, the process exits (the run finished first), or the deadline
// lapses. Returns the wait error and whether the process already exited.
func awaitNewCkpt(t *testing.T, path, prev string, done <-chan error) (exited bool, waitErr error) {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for {
		select {
		case err := <-done:
			return true, err
		default:
		}
		if sig := ckptSig(path); sig != "" && sig != prev {
			return false, nil
		}
		if time.Now().After(deadline) {
			t.Fatal("no new checkpoint within 60s")
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// chaosKillResume is the shared harness: golden uninterrupted run,
// then >= minKills SIGKILL+resume cycles, then a final run to
// completion; the resumed VCF must equal the golden bytes.
func chaosKillResume(t *testing.T, extra ...string) {
	bins := buildChaosTools(t)
	data, common := chaosDataset(t, bins, 11)
	bin := filepath.Join(bins, "gnumap-snp")

	golden := filepath.Join(data, "golden.vcf")
	run(t, bin, append(append([]string{}, common...), append(extra, "-o", golden)...)...)
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}

	ck := filepath.Join(data, "run.ckpt")
	out := filepath.Join(data, "resumed.vcf")
	args := append(append([]string{}, common...), extra...)
	args = append(args, "-o", out, "-checkpoint", ck, "-resume", "-checkpoint-every", "400")

	const minKills = 3
	rng := rand.New(rand.NewSource(29))
	kills := 0
	for attempt := 0; ; attempt++ {
		if attempt > minKills+5 {
			t.Fatalf("no clean completion after %d attempts (%d kills)", attempt, kills)
		}
		var buf bytes.Buffer
		cmd := exec.Command(bin, args...)
		cmd.Stdout, cmd.Stderr = &buf, &buf
		if err := cmd.Start(); err != nil {
			t.Fatal(err)
		}
		done := make(chan error, 1)
		go func() { done <- cmd.Wait() }()

		if kills < minKills {
			exited, werr := awaitNewCkpt(t, ck, ckptSig(ck), done)
			if exited {
				if werr != nil {
					t.Fatalf("run died on its own: %v\n%s", werr, buf.String())
				}
				t.Fatalf("run finished before %d kills; shrink -checkpoint-every", minKills)
			}
			// Randomize the crash point within the post-commit window so
			// different cycles die in different pipeline states.
			time.Sleep(time.Duration(rng.Intn(25)) * time.Millisecond)
			if err := cmd.Process.Kill(); err != nil {
				t.Fatal(err)
			}
			<-done // reap; "signal: killed" is the expected outcome
			kills++
			continue
		}
		if err := <-done; err != nil {
			t.Fatalf("final resumed run failed: %v\n%s", err, buf.String())
		}
		break
	}
	if kills < minKills {
		t.Fatalf("only %d kill cycles ran", kills)
	}
	got, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("resumed VCF differs from uninterrupted run after %d kills:\n--- golden ---\n%s\n--- resumed ---\n%s",
			kills, want, got)
	}
}

func TestChaosKillResumeSingleProcess(t *testing.T) {
	chaosKillResume(t)
}

func TestChaosKillResumeClusterReadSplit(t *testing.T) {
	chaosKillResume(t, "-nodes", "4", "-split", "read")
}

// The checkpoint sink and the incremental calling sweep subscribe to
// the same quiesce barrier: killed and resumed runs must still end in
// the uninterrupted incremental run's exact VCF.
func TestChaosKillResumeIncremental(t *testing.T) {
	chaosKillResume(t, "-incremental-every", "1000")
}

// TestGracefulStopResume: SIGTERM mid-run drains the pipeline, writes a
// final checkpoint, and exits with the distinct resumable status code;
// a relaunch completes with the uninterrupted run's exact VCF.
func TestGracefulStopResume(t *testing.T) {
	bins := buildChaosTools(t)
	data, common := chaosDataset(t, bins, 13)
	bin := filepath.Join(bins, "gnumap-snp")

	golden := filepath.Join(data, "golden.vcf")
	run(t, bin, append(append([]string{}, common...), "-o", golden)...)
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}

	ck := filepath.Join(data, "run.ckpt")
	out := filepath.Join(data, "resumed.vcf")
	args := append(append([]string{}, common...),
		"-o", out, "-checkpoint", ck, "-resume", "-checkpoint-every", "400")

	var buf bytes.Buffer
	cmd := exec.Command(bin, args...)
	cmd.Stdout, cmd.Stderr = &buf, &buf
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- cmd.Wait() }()
	exited, werr := awaitNewCkpt(t, ck, "", done)
	if exited {
		t.Fatalf("run ended before the first checkpoint: %v\n%s", werr, buf.String())
	}
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	werr = <-done
	var exitErr *exec.ExitError
	if !errors.As(werr, &exitErr) || exitErr.ExitCode() != 3 {
		t.Fatalf("SIGTERM exit = %v, want exit code 3\n%s", werr, buf.String())
	}
	if !bytes.Contains(buf.Bytes(), []byte("relaunch with -resume")) {
		t.Errorf("graceful stop message missing:\n%s", buf.String())
	}
	sigAfterStop := ckptSig(ck)
	if sigAfterStop == "" {
		t.Fatal("no checkpoint on disk after graceful stop")
	}

	out2 := run(t, bin, args...)
	if !bytes.Contains([]byte(out2), []byte("resuming from")) {
		t.Errorf("resume message missing:\n%s", out2)
	}
	got, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("VCF after graceful stop + resume differs:\n--- golden ---\n%s\n--- resumed ---\n%s", want, got)
	}
}
