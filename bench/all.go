package main

import (
	"encoding/json"
	"fmt"
	"path/filepath"
	"time"
)

// setResult is one complete set of runs: every workload's end-to-end
// and per-layer metrics.
type setResult struct {
	Seed      int64                         `json:"seed"`
	Seconds   float64                       `json:"seconds"`
	Attempted int                           `json:"attempted"`
	Failed    int                           `json:"failed"`
	EndToEnd  map[string]map[string]float64 `json:"end_to_end"`
	PerLayer  map[string]map[string]float64 `json:"per_layer"`
	Passes    map[string]series             `json:"pass_wall_s_samples"`
}

// comparison is one row of the A/A table: a metric of a workload in two
// sets of the same commit, and how much worse the second is as a share
// of the first.
type comparison struct {
	Workload string  `json:"workload"`
	Metric   string  `json:"metric"`
	A        float64 `json:"a"`
	B        float64 `json:"b"`
	Worse    float64 `json:"worse_by"`
	Bound    float64 `json:"bound"`
	Breach   bool    `json:"breach"`
}

// summary is what -all and -aa print last. This change defines the
// benchmark and claims no gain, so Claim is always null.
type summary struct {
	Stamp stamp        `json:"stamp"`
	Sets  []setResult  `json:"sets"`
	AA    []comparison `json:"aa,omitempty"`
	Claim *string      `json:"claim"`
}

// allRounds is how many passes -all and -aa give each workload: at
// about a second each, 25 s or more of passes per workload.
const allRounds = 25

// runAll is the standalone mode: o.rounds times every workload gets a
// round (a pass, a set-up run and every fourth time a CLI run), in an
// order rotated every time, so each workload's samples span the whole
// run; then every workload's traced runs. With o.aa a second set
// follows and the two are compared.
func runAll(o options, bin, dir string) error {
	sets := 1
	if o.aa {
		sets = 2
	}
	var sum summary
	for i := 0; i < sets; i++ {
		set, st, err := runSet(o, bin, filepath.Join(dir, fmt.Sprintf("set%d", i+1)))
		if err != nil {
			return err
		}
		sum.Stamp = st
		sum.Sets = append(sum.Sets, set)
	}
	breach := false
	if o.aa {
		sum.AA = compareSets(sum.Sets[0], sum.Sets[1])
		fmt.Fprintf(o.stdout, "\n%-13s %-12s %12s %12s %9s %7s\n", "A/A", "metric", "set 1", "set 2", "worse by", "bound")
		for _, c := range sum.AA {
			mark := ""
			if c.Breach {
				mark = "  BREACH"
				breach = true
			}
			fmt.Fprintf(o.stdout, "%-13s %-12s %12.6g %12.6g %8.1f%% %6.0f%%%s\n",
				c.Workload, c.Metric, c.A, c.B, 100*c.Worse, 100*c.Bound, mark)
		}
	}
	out, err := json.MarshalIndent(sum, "", " ")
	if err != nil {
		return err
	}
	fmt.Fprintln(o.stdout, string(out))
	for _, set := range sum.Sets {
		if set.Failed > 0 {
			return fmt.Errorf("%d of %d runs failed their checks", set.Failed, set.Attempted)
		}
	}
	if breach {
		return fmt.Errorf("two sets of the same commit differ by more than a bound")
	}
	return nil
}

func runSet(o options, bin, dir string) (setResult, stamp, error) {
	set := setResult{
		Seed: o.seed, EndToEnd: map[string]map[string]float64{}, PerLayer: map[string]map[string]float64{},
		Passes: map[string]series{},
	}
	t0 := time.Now()
	var sessions []*session
	for _, w := range workloads {
		if o.smoke {
			w = w.smoke()
		}
		s, err := newSession(w, o.seed, bin, filepath.Join(dir, w.Name))
		if err != nil {
			return set, stamp{}, err
		}
		sessions = append(sessions, s)
	}
	st := newStamp(o, sessions)
	printStamp(o.stdout, st)
	for round := 0; round < o.rounds; round++ {
		for _, i := range rotation(len(sessions), round) {
			if err := sessions[i].round(round); err != nil {
				return set, st, err
			}
		}
	}
	for _, s := range sessions {
		printSeries(o.stdout, s)
		set.EndToEnd[s.w.Name] = s.endToEnd()
		set.Passes[s.w.Name] = summarise(s.passWalls())
		printMetrics(o.stdout, s.w.Name, endToEnd, set.EndToEnd[s.w.Name])
	}
	// Traced runs come after the rounds, so that the probes and legs
	// never compete with a pass behind wall_s for memory or cores.
	for _, s := range sessions {
		traceSeconds := 12.0
		if o.smoke {
			traceSeconds = 1
		}
		values, err := s.traced(after(traceSeconds))
		if err != nil {
			return set, st, err
		}
		if err := s.tr.dump(filepath.Join(s.d.Dir, "trace.json")); err != nil {
			return set, st, err
		}
		set.PerLayer[s.w.Name] = values
		printMetrics(o.stdout, s.w.Name, perLayer, values)
	}
	for _, s := range sessions {
		set.Attempted += s.attempted
		set.Failed += s.failed
		printFindings(o.stdout, s)
	}
	set.Seconds = time.Since(t0).Seconds()
	return set, st, nil
}

// compareSets lists, for every workload and end-to-end metric, how much
// worse set b is than set a as a share of a, and whether that breaks the
// metric's bound.
func compareSets(a, b setResult) []comparison {
	var rows []comparison
	for _, w := range workloads {
		for _, d := range endToEnd {
			x, y := a.EndToEnd[w.Name][d.Name], b.EndToEnd[w.Name][d.Name]
			c := comparison{Workload: w.Name, Metric: d.Name, A: x, B: y, Bound: d.Bound}
			if x != 0 {
				c.Worse = (y - x) / x
				if d.Better == "higher" {
					c.Worse = -c.Worse
				}
			}
			c.Breach = c.Worse > d.Bound
			rows = append(rows, c)
		}
	}
	return rows
}
