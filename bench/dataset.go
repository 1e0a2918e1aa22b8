package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"

	"gnumap"
)

// dataset is one workload's generated input files. The program under
// test only ever sees the files; Truth and NReads stay with the
// benchmark for checking its outputs.
type dataset struct {
	Dir string
	// Ref, Reads and Empty are the FASTA, the FASTQ and a zero-read
	// FASTQ (for the set-up runs). Index is where the prepare step
	// writes the .gnix, empty when the workload has none.
	Ref, Reads, Empty, Index string
	RefLen, NReads           int
	Truth                    []gnumap.TruthSNP
	// Digests maps each generated file's base name to its SHA-256.
	Digests map[string]string
}

// buildDataset generates a workload's inputs into dir from the seed,
// using only the public simulator calls: a reference, SNPs planted
// every snpSpacing bases of the target prefix, reads sequenced from the
// mutated target at targetCoverage, and — for workloads with Background
// — reads from the whole mutated reference, shuffled in. The same seed
// gives byte-identical files.
func buildDataset(w workload, seed int64, dir string) (*dataset, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	ref, err := gnumap.SimulateGenome(gnumap.SimConfig{
		GenomeLength:            w.GenomeLen,
		DispersedRepeatFraction: w.Dispersed,
		TandemRepeatFraction:    w.Tandem,
		Seed:                    seed,
	})
	if err != nil {
		return nil, fmt.Errorf("simulate genome: %w", err)
	}
	target := []*gnumap.Contig{{Name: ref[0].Name, Seq: ref[0].Seq[:w.TargetLen]}}
	var positions []int
	for p := snpSpacing / 2; p < w.TargetLen-100; p += snpSpacing {
		positions = append(positions, p)
	}
	truth, err := gnumap.PlantSNPs(target, positions, seed+1)
	if err != nil {
		return nil, fmt.Errorf("plant SNPs: %w", err)
	}
	reads, err := gnumap.SimulateReadsFrom(target, truth, gnumap.SimConfig{Coverage: targetCoverage, Seed: seed})
	if err != nil {
		return nil, fmt.Errorf("simulate target reads: %w", err)
	}
	if w.Background > 0 {
		bg, err := gnumap.SimulateReadsFrom(ref, truth, gnumap.SimConfig{Coverage: w.Background, Seed: seed + 100})
		if err != nil {
			return nil, fmt.Errorf("simulate background reads: %w", err)
		}
		for _, rd := range bg {
			rd.Name = "bg_" + rd.Name // keep names unique across the two sets
		}
		reads = append(reads, bg...)
		rand.New(rand.NewSource(seed+200)).Shuffle(len(reads), func(i, j int) {
			reads[i], reads[j] = reads[j], reads[i]
		})
	}
	d := &dataset{
		Dir:     dir,
		Ref:     filepath.Join(dir, "ref.fa"),
		Reads:   filepath.Join(dir, "reads.fq"),
		Empty:   filepath.Join(dir, "empty.fq"),
		RefLen:  w.GenomeLen,
		NReads:  len(reads),
		Truth:   truth,
		Digests: map[string]string{},
	}
	if w.SeedLen > 14 {
		d.Index = filepath.Join(dir, "ref.gnix")
	}
	if err := gnumap.WriteReference(d.Ref, ref); err != nil {
		return nil, err
	}
	if err := gnumap.WriteReads(d.Reads, reads, gnumap.Sanger); err != nil {
		return nil, err
	}
	if err := os.WriteFile(d.Empty, nil, 0o644); err != nil {
		return nil, err
	}
	for _, p := range []string{d.Ref, d.Reads} {
		if d.Digests[filepath.Base(p)], err = fileDigest(p); err != nil {
			return nil, err
		}
	}
	return d, nil
}

// fileDigest is the SHA-256 of a file, streamed: the benchmark process
// never holds a generated file in memory.
func fileDigest(path string) (string, error) {
	f, err := os.Open(path)
	if err != nil {
		return "", err
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "", fmt.Errorf("digest %s: %w", path, err)
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}
