// Cluster example: run the same mapping job on a simulated
// message-passing cluster in both of the paper's MPI modes (§VI Step 1)
// and verify the distributed results are identical to a single-process
// run — the property Figure 4 takes for granted while measuring
// throughput.
//
//	go run ./examples/cluster [-nodes 4] [-tcp]
package main

import (
	"flag"
	"fmt"
	"log"
	"time"

	"gnumap"
)

func main() {
	log.SetFlags(0)
	nodes := flag.Int("nodes", 4, "simulated cluster size")
	tcp := flag.Bool("tcp", false, "communicate over loopback TCP instead of channels")
	flag.Parse()

	ds, err := gnumap.SimulateDataset(gnumap.SimConfig{
		GenomeLength: 200_000,
		SNPCount:     20,
		Coverage:     10,
		Seed:         7,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("dataset: %d reads, %d planted SNPs\n\n", len(ds.Reads), len(ds.Truth))

	// Single-process reference run (one worker, to make the speedup
	// comparison honest).
	opts := gnumap.Options{}
	opts.Engine.Workers = 1
	start := time.Now()
	p, err := gnumap.NewPipeline(ds.Reference, opts)
	if err != nil {
		log.Fatal(err)
	}
	if _, err := p.MapReads(ds.Reads); err != nil {
		log.Fatal(err)
	}
	want, _, err := p.Call()
	if err != nil {
		log.Fatal(err)
	}
	soloTime := time.Since(start)
	fmt.Printf("%-22s %8s  %5d SNPs\n", "single process", soloTime.Round(time.Millisecond), len(want))

	transport := gnumap.Channels
	if *tcp {
		transport = gnumap.TCP
	}
	for _, mode := range []gnumap.SplitMode{gnumap.ReadSplit, gnumap.GenomeSplit} {
		start := time.Now()
		calls, stats, err := gnumap.RunClusterStream(*nodes, transport, mode, ds.Reference, gnumap.SliceReadSource(ds.Reads), opts)
		if err != nil {
			log.Fatal(err)
		}
		elapsed := time.Since(start)
		fmt.Printf("%-22s %8s  %5d SNPs  (%d/%d mapped, speedup %.2fx)\n",
			fmt.Sprintf("%d nodes, %s", *nodes, mode),
			elapsed.Round(time.Millisecond), len(calls),
			stats.Mapped, stats.Mapped+stats.Unmapped,
			soloTime.Seconds()/elapsed.Seconds())
		if !sameCalls(want, calls) {
			log.Fatalf("%s: distributed calls differ from single-process calls", mode)
		}
	}
	fmt.Println("\nall modes produced identical SNP calls ✓")
}

// sameCalls compares call positions and alleles.
func sameCalls(a, b []gnumap.SNPCall) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].GlobalPos != b[i].GlobalPos || a[i].Allele != b[i].Allele || a[i].Het != b[i].Het {
			return false
		}
	}
	return true
}
