package core

import (
	"encoding/gob"
	"fmt"
	"sort"

	"gnumap/internal/cluster"
	"gnumap/internal/obs"
)

func init() {
	gob.Register(obs.Snapshot{})
}

// The point-to-point tags of core's protocols, in the user tag space
// (collectives use negative tags): the genome-split boundary spill, the
// end-of-run metrics snapshot, and the dealing protocol
// (cluster_stream.go; genome-split uses its shard tag).
const (
	spillTag       = 17
	metricsTag     = 1003
	streamShardTag = 1004
	streamAckTag   = 1005
	streamRoundTag = 1006
)

// RunRanks is the rank harness of both splits: it runs rank on each node
// of a size-node cluster configured by rc and waits them all out. With
// regs non-nil, rank r records its communication into regs[r] and, once
// its part has returned cleanly, reports a snapshot of regs[r] to rank
// 0. The snapshots rank 0 received (its own first, then in rank order)
// and the ranks whose snapshot never arrived are returned; both are nil
// without regs, or when rank 0's part failed.
func RunRanks(size int, rc cluster.RunConfig, regs []*obs.Registry, rank func(c *cluster.Comm) error) (snaps []obs.Snapshot, dead []int, err error) {
	err = cluster.RunWithConfig(size, rc, func(c *cluster.Comm) error {
		var reg *obs.Registry
		if regs != nil {
			reg = regs[c.Rank()]
			c.SetMetrics(reg)
		}
		if err := rank(c); err != nil || reg == nil {
			return err
		}
		got, gotDead, err := gatherMetrics(c, reg.Snapshot(c.Rank()))
		if c.Rank() == 0 {
			snaps, dead = got, gotDead
		}
		return err
	})
	return snaps, dead, err
}

// gatherMetrics collects every rank's metrics snapshot at rank 0: each
// worker sends its snapshot and returns, and rank 0 receives them in rank
// order, waiting as the dealer waits for a payload (a plain blocking
// receive without an op timeout). With deadlines configured it is
// failure-aware: a worker's send is best-effort, and rank 0 classifies
// communication loss as a dead rank rather than an error, so a degraded
// run still yields a report covering the survivors.
func gatherMetrics(c *cluster.Comm, snap obs.Snapshot) (snaps []obs.Snapshot, dead []int, err error) {
	ft := c.OpTimeout() > 0
	if c.Rank() != 0 {
		// A dying coordinator must not turn a finished worker's
		// fault-tolerant run into an error over a metrics report.
		if err := c.Send(0, metricsTag, snap); err != nil && !ft {
			return nil, nil, err
		}
		return nil, nil, nil
	}
	snaps = append(snaps, snap)
	for r := 1; r < c.Size(); r++ {
		v, err := c.RecvPatient(r, metricsTag, c.OpTimeout(), ftMaxExtensions)
		if err != nil {
			if ft && isCommLoss(err) {
				dead = append(dead, r)
				continue
			}
			return nil, nil, err
		}
		s, ok := v.(obs.Snapshot)
		if !ok {
			return nil, nil, fmt.Errorf("core: rank %d sent metrics payload %T", r, v)
		}
		snaps = append(snaps, s)
	}
	sort.Ints(dead)
	return snaps, dead, nil
}
