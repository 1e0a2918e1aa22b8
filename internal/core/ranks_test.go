package core

import (
	"errors"
	"fmt"
	"reflect"
	"testing"
	"time"

	"gnumap/internal/cluster"
	"gnumap/internal/obs"
)

// rankRegs returns one fresh registry per rank.
func rankRegs(size int) []*obs.Registry {
	regs := make([]*obs.Registry, size)
	for r := range regs {
		regs[r] = obs.NewRegistry()
	}
	return regs
}

// TestRunRanksGathersEveryRankOnce: the harness hands each rank its own
// registry (communication counters included) and gathers one snapshot
// per rank at rank 0, in rank order, over the same receive with and
// without deadlines; without registries it gathers nothing.
func TestRunRanksGathersEveryRankOnce(t *testing.T) {
	const size = 3
	for _, rc := range []cluster.RunConfig{
		{Kind: cluster.Channels},
		{Kind: cluster.Channels, OpTimeout: 2 * time.Second},
		{Kind: cluster.TCP},
	} {
		t.Run(fmt.Sprintf("%v/timeout=%v", rc.Kind, rc.OpTimeout), func(t *testing.T) {
			regs := rankRegs(size)
			snaps, dead, err := RunRanks(size, rc, regs, func(c *cluster.Comm) error {
				regs[c.Rank()].Counter("test.rank").Add(int64(c.Rank() + 1))
				_, err := c.Gather(0, c.Rank())
				return err
			})
			if err != nil {
				t.Fatal(err)
			}
			if dead != nil {
				t.Errorf("healthy run reports dead ranks %v", dead)
			}
			if len(snaps) != size {
				t.Fatalf("%d snapshots gathered, want %d", len(snaps), size)
			}
			for r, s := range snaps {
				if s.Rank != r || s.Counters["test.rank"] != int64(r+1) {
					t.Errorf("snapshot %d: rank %d, test.rank %d", r, s.Rank, s.Counters["test.rank"])
				}
				if r > 0 && s.Counters["comm.send.count"] == 0 {
					t.Errorf("rank %d recorded no sends: its comm metrics are not its registry's", r)
				}
			}
		})
	}
	snaps, dead, err := RunRanks(size, cluster.RunConfig{Kind: cluster.Channels}, nil, func(c *cluster.Comm) error {
		_, err := c.Gather(0, c.Rank())
		return err
	})
	if err != nil || snaps != nil || dead != nil {
		t.Errorf("without registries: snaps %v, dead %v, err %v; want nothing gathered", snaps, dead, err)
	}
}

// TestRunRanksDegradedDeadRank: with deadlines on, a rank that dies
// before reporting is listed dead and the survivors' snapshots still
// arrive; a failure of rank 0's part fails the run and gathers nothing.
func TestRunRanksDegradedDeadRank(t *testing.T) {
	const size = 4
	rc := cluster.RunConfig{Kind: cluster.Channels, OpTimeout: 100 * time.Millisecond}
	snaps, dead, err := RunRanks(size, rc, rankRegs(size), func(c *cluster.Comm) error {
		if c.Rank() == 2 {
			return fmt.Errorf("rank 2 dies: %w", cluster.ErrCrashed)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(dead, []int{2}) {
		t.Errorf("dead = %v, want [2]", dead)
	}
	var got []int
	for _, s := range snaps {
		got = append(got, s.Rank)
	}
	if !reflect.DeepEqual(got, []int{0, 1, 3}) {
		t.Errorf("snapshots from ranks %v, want [0 1 3]", got)
	}

	boom := errors.New("rank 0 fails")
	snaps, dead, err = RunRanks(size, rc, rankRegs(size), func(c *cluster.Comm) error {
		if c.Rank() == 0 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) || snaps != nil || dead != nil {
		t.Errorf("rank 0 failed: snaps %v, dead %v, err %v; want its error and nothing gathered", snaps, dead, err)
	}
}
