package cluster

import (
	"fmt"
	"testing"
)

// BenchmarkGatherBroadcast measures the cost of the genome-split mode's
// per-batch exchange: a Gather to rank 0 and a Broadcast back.
func BenchmarkGatherBroadcast(b *testing.B) {
	for _, tk := range []TransportKind{Channels, TCP} {
		for _, nodes := range []int{2, 4} {
			b.Run(fmt.Sprintf("%s/nodes=%d", tk, nodes), func(b *testing.B) {
				payload := make([]float64, 256)
				err := Run(nodes, tk, func(c *Comm) error {
					for i := 0; i < b.N; i++ {
						if _, err := c.Gather(0, payload); err != nil {
							return err
						}
						if _, err := c.Broadcast(0, payload); err != nil {
							return err
						}
					}
					return nil
				})
				if err != nil {
					b.Fatal(err)
				}
			})
		}
	}
}

// BenchmarkPointToPoint measures raw message throughput.
func BenchmarkPointToPoint(b *testing.B) {
	for _, tk := range []TransportKind{Channels, TCP} {
		b.Run(tk.String(), func(b *testing.B) {
			payload := make([]float32, 1<<14) // 64 KiB
			err := Run(2, tk, func(c *Comm) error {
				if c.Rank() == 0 {
					for i := 0; i < b.N; i++ {
						if err := c.Send(1, 5, payload); err != nil {
							return err
						}
					}
					return nil
				}
				for i := 0; i < b.N; i++ {
					if _, err := c.Recv(0, 5); err != nil {
						return err
					}
				}
				return nil
			})
			if err != nil {
				b.Fatal(err)
			}
			b.SetBytes(int64(len(payload)) * 4)
		})
	}
}
