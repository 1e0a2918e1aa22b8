package experiments

import (
	"testing"

	"gnumap/internal/cluster"
	"gnumap/internal/genome"
)

// smallData builds a fast dataset shared by the tests.
func smallData(t *testing.T) *Dataset {
	t.Helper()
	ds, err := MakeDataset(DataConfig{GenomeLength: 60_000, SNPCount: 5, Coverage: 8, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

func TestMakeDatasetDefaults(t *testing.T) {
	ds, err := MakeDataset(DataConfig{GenomeLength: 30_000})
	if err != nil {
		t.Fatal(err)
	}
	if len(ds.Truth) != 30_000/10_500 {
		t.Errorf("default SNP density wrong: %d SNPs", len(ds.Truth))
	}
	if ds.Ref.Len() != 30_000 {
		t.Errorf("reference length %d", ds.Ref.Len())
	}
	wantReads := int(12 * 30_000 / 62)
	if len(ds.Reads) != wantReads {
		t.Errorf("%d reads, want %d", len(ds.Reads), wantReads)
	}
}

func TestTable1ShapeHolds(t *testing.T) {
	ds := smallData(t)
	rows, err := Table1(ds, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 || rows[0].Program != "MAQ-like" || rows[1].Program != "SOAPsnp-like" || rows[2].Program != "GNUMAP-SNP" {
		t.Fatalf("rows = %+v", rows)
	}
	for _, r := range rows {
		// Both programs must be decent on this easy dataset (the
		// paper's Table I: similar accuracy for both).
		if r.TP < len(ds.Truth)-2 {
			t.Errorf("%s recovered %d/%d", r.Program, r.TP, len(ds.Truth))
		}
		if r.Precision < 0.7 {
			t.Errorf("%s precision %v", r.Program, r.Precision)
		}
		if r.Wall <= 0 {
			t.Errorf("%s has no wall time", r.Program)
		}
	}
}

func TestTable2Ordering(t *testing.T) {
	rows, err := Table2()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("%d rows", len(rows))
	}
	if !(rows[0].Mode == genome.Norm && rows[1].Mode == genome.CharDisc && rows[2].Mode == genome.CentDisc) {
		t.Fatalf("row order wrong: %+v", rows)
	}
	// The paper's Table II ordering: NORM > CHARDISC > CENTDISC.
	if !(rows[0].BytesPerBase > rows[1].BytesPerBase && rows[1].BytesPerBase > rows[2].BytesPerBase) {
		t.Errorf("memory ordering violated: %+v", rows)
	}
	// NORM is exactly 20 bytes/base; extrapolations scale linearly.
	if rows[0].BytesPerBase != 20 {
		t.Errorf("NORM bytes/base = %v", rows[0].BytesPerBase)
	}
	if rows[0].HumanBytes != 20*humanBases {
		t.Errorf("human extrapolation = %d", rows[0].HumanBytes)
	}
}

func TestTable3ShapeHolds(t *testing.T) {
	ds := smallData(t)
	rows, err := Table3(ds, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("%d rows", len(rows))
	}
	byMode := map[genome.Mode]Table3Row{}
	for _, r := range rows {
		byMode[r.Mode] = r
	}
	// Memory ordering as Table II.
	if !(byMode[genome.Norm].MemBytes > byMode[genome.CharDisc].MemBytes &&
		byMode[genome.CharDisc].MemBytes > byMode[genome.CentDisc].MemBytes) {
		t.Errorf("memory ordering violated: %+v", rows)
	}
	// The paper's headline: NORM and CHARDISC accurate, CENTDISC's
	// precision collapses.
	if byMode[genome.Norm].Precision < 0.7 || byMode[genome.CharDisc].Precision < 0.7 {
		t.Errorf("NORM/CHARDISC precision too low: %+v", rows)
	}
	if byMode[genome.CentDisc].Precision > 0.5 {
		t.Errorf("CENTDISC precision = %v, expected collapse (paper Table III)",
			byMode[genome.CentDisc].Precision)
	}
	if byMode[genome.CentDisc].FP <= byMode[genome.Norm].FP {
		t.Errorf("CENTDISC FP (%d) not worse than NORM (%d)",
			byMode[genome.CentDisc].FP, byMode[genome.Norm].FP)
	}
}

func TestFig4ShapeHolds(t *testing.T) {
	ds, err := MakeDataset(DataConfig{GenomeLength: 40_000, SNPCount: 3, Coverage: 10, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	points, err := Fig4(ds, 3, cluster.Channels)
	if err != nil {
		t.Fatal(err)
	}
	// Both modes at every node count up to the request or the host's
	// cores, whichever is smaller: a 4-node row on 2 cores is not run.
	maxNodes := min(3, Cores())
	if len(points) != 2*maxNodes {
		t.Fatalf("%d points, want %d (%d cores)", len(points), 2*maxNodes, Cores())
	}
	for i, p := range points {
		wantMode := []string{"read-split", "genome-split"}[i%2]
		if p.Nodes != i/2+1 || p.Mode != wantMode {
			t.Errorf("point %d is %d nodes %s, want %d nodes %s", i, p.Nodes, p.Mode, i/2+1, wantMode)
		}
		if p.Rate <= 0 {
			t.Errorf("non-positive rate: %+v", p)
		}
	}
}

func TestFig5ShapeHolds(t *testing.T) {
	ds, err := MakeDataset(DataConfig{GenomeLength: 40_000, SNPCount: 3, Coverage: 5, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	points, err := Fig5(ds, 2)
	if err != nil {
		t.Fatal(err)
	}
	if want := 3 * min(2, Cores()); len(points) != want {
		t.Fatalf("%d points, want %d (%d cores)", len(points), want, Cores())
	}
	var normRate, centRate float64
	for _, p := range points {
		if p.Workers == 1 {
			switch p.Mode {
			case genome.Norm:
				normRate = p.Rate
			case genome.CentDisc:
				centRate = p.Rate
			}
		}
		if p.Rate <= 0 {
			t.Errorf("non-positive rate: %+v", p)
		}
	}
	// Figure 5's secondary claim: CENTDISC is the slowest mode (its
	// nearest-centroid search runs on every update). Wall-clock
	// comparisons on a shared machine are noisy, so allow 25% slack —
	// the steady-state gap is far larger.
	if centRate >= 1.25*normRate {
		t.Errorf("CENTDISC rate %v >= NORM rate %v", centRate, normRate)
	}
}

func TestAblationsShapeHolds(t *testing.T) {
	ds := smallData(t)
	rows, err := Ablations(ds, 2)
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]AblationRow{}
	for _, r := range rows {
		byName[r.Variant] = r
	}
	full, ok := byName["full-engine"]
	if !ok {
		t.Fatal("no full-engine row")
	}
	if full.TP < len(ds.Truth)-1 {
		t.Errorf("full engine recovered %d/%d", full.TP, len(ds.Truth))
	}
	// The naive caller (no LRT background test) must produce more
	// false positives than the full engine — the paper's core claim
	// about ad hoc cutoffs.
	naive, ok := byName["naive-caller"]
	if !ok {
		t.Fatal("no naive-caller row")
	}
	if naive.FP <= full.FP {
		t.Errorf("naive caller FP (%d) not worse than LRT caller (%d)", naive.FP, full.FP)
	}
}

func TestCutoffSweepMonotone(t *testing.T) {
	ds := smallData(t)
	rows, err := CutoffSweep(ds, 2, []float64{0.001, 0.05, 0.25})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 {
		t.Fatalf("%d rows", len(rows))
	}
	// Within each control style, loosening alpha must not lose TPs.
	for _, fdr := range []bool{false, true} {
		var prev *SweepRow
		for i := range rows {
			r := rows[i]
			if r.FDR != fdr {
				continue
			}
			if prev != nil {
				if r.TP < prev.TP {
					t.Errorf("fdr=%v: TP dropped from %d to %d as alpha rose", fdr, prev.TP, r.TP)
				}
				if r.FP < prev.FP {
					t.Errorf("fdr=%v: FP dropped from %d to %d as alpha rose", fdr, prev.FP, r.FP)
				}
			}
			prev = &rows[i]
		}
	}
}
