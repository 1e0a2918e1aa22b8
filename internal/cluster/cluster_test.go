package cluster

import (
	"errors"
	"fmt"
	"math"
	"sync/atomic"
	"testing"
)

func transports() []TransportKind { return []TransportKind{Channels, TCP} }

// gatherSum is the all-to-all the tests use wherever any collective
// touching every rank will do: every rank contributes x, root sums what
// Gather collected and Broadcasts the total — the same two collectives
// as the genome-split exchange, their production caller.
func gatherSum(c *Comm, x float64) (float64, error) {
	vals, err := c.Gather(0, x)
	if err != nil {
		return 0, err
	}
	sum := 0.0
	for _, v := range vals { // root only
		sum += v.(float64)
	}
	v, err := c.Broadcast(0, sum)
	if err != nil {
		return 0, err
	}
	return v.(float64), nil
}

// meet is the tests' meeting point: a Gather at rank 0 followed by its
// Broadcast, so no rank leaves before every rank has arrived.
func meet(c *Comm) error {
	if _, err := c.Gather(0, true); err != nil {
		return err
	}
	_, err := c.Broadcast(0, true)
	return err
}

func TestRunValidation(t *testing.T) {
	if err := Run(0, Channels, func(c *Comm) error { return nil }); err == nil {
		t.Error("size 0 accepted")
	}
	if err := Run(2, TransportKind(9), func(c *Comm) error { return nil }); err == nil {
		t.Error("unknown transport accepted")
	}
}

func TestTransportKindString(t *testing.T) {
	if Channels.String() != "channels" || TCP.String() != "tcp" {
		t.Error("transport names wrong")
	}
}

func TestSingleRank(t *testing.T) {
	for _, tk := range transports() {
		err := Run(1, tk, func(c *Comm) error {
			if c.Rank() != 0 || c.Size() != 1 {
				return fmt.Errorf("rank/size wrong")
			}
			if err := meet(c); err != nil {
				return err
			}
			v, err := c.Broadcast(0, "hello")
			if err != nil || v.(string) != "hello" {
				return fmt.Errorf("broadcast: %v %v", v, err)
			}
			if sum, err := gatherSum(c, 3); err != nil || sum != 3 {
				return fmt.Errorf("gather+broadcast: %v %v", sum, err)
			}
			return nil
		})
		if err != nil {
			t.Errorf("%v: %v", tk, err)
		}
	}
}

func TestPointToPoint(t *testing.T) {
	for _, tk := range transports() {
		err := Run(4, tk, func(c *Comm) error {
			// Ring: each rank sends its rank to the next, receives from
			// the previous.
			next := (c.Rank() + 1) % c.Size()
			prev := (c.Rank() + c.Size() - 1) % c.Size()
			if err := c.Send(next, 7, c.Rank()); err != nil {
				return err
			}
			v, err := c.Recv(prev, 7)
			if err != nil {
				return err
			}
			if v.(int) != prev {
				return fmt.Errorf("rank %d got %v from %d", c.Rank(), v, prev)
			}
			return nil
		})
		if err != nil {
			t.Errorf("%v: %v", tk, err)
		}
	}
}

func TestTagMatchingOutOfOrder(t *testing.T) {
	for _, tk := range transports() {
		err := Run(2, tk, func(c *Comm) error {
			if c.Rank() == 0 {
				// Send two tagged messages; receiver asks for them in
				// the opposite order.
				if err := c.Send(1, 1, "first"); err != nil {
					return err
				}
				if err := c.Send(1, 2, "second"); err != nil {
					return err
				}
				return nil
			}
			v2, err := c.Recv(0, 2)
			if err != nil {
				return err
			}
			v1, err := c.Recv(0, 1)
			if err != nil {
				return err
			}
			if v1.(string) != "first" || v2.(string) != "second" {
				return fmt.Errorf("got %v/%v", v1, v2)
			}
			return nil
		})
		if err != nil {
			t.Errorf("%v: %v", tk, err)
		}
	}
}

func TestSendRecvValidation(t *testing.T) {
	err := Run(2, Channels, func(c *Comm) error {
		if err := c.Send(5, 0, 1); err == nil {
			return fmt.Errorf("send to bad rank accepted")
		}
		if err := c.Send(c.Rank(), 0, 1); err == nil {
			return fmt.Errorf("self-send accepted")
		}
		if err := c.Send((c.Rank()+1)%2, -1, 1); err == nil {
			return fmt.Errorf("negative tag accepted")
		}
		if _, err := c.Recv(9, 0); err == nil {
			return fmt.Errorf("recv from bad rank accepted")
		}
		if _, err := c.Recv(0, -3); err == nil {
			return fmt.Errorf("negative recv tag accepted")
		}
		return nil
	})
	if err != nil {
		t.Error(err)
	}
}

func TestBarrierOrdering(t *testing.T) {
	for _, tk := range transports() {
		var before, after int32
		err := Run(4, tk, func(c *Comm) error {
			atomic.AddInt32(&before, 1)
			if err := meet(c); err != nil {
				return err
			}
			if v := atomic.LoadInt32(&before); v != 4 {
				return fmt.Errorf("rank %d passed barrier with only %d arrivals", c.Rank(), v)
			}
			atomic.AddInt32(&after, 1)
			return nil
		})
		if err != nil {
			t.Errorf("%v: %v", tk, err)
		}
		if after != 4 {
			t.Errorf("%v: %d ranks finished", tk, after)
		}
	}
}

func TestBroadcast(t *testing.T) {
	for _, tk := range transports() {
		err := Run(3, tk, func(c *Comm) error {
			var payload any
			if c.Rank() == 1 {
				payload = []float64{3, 1, 4}
			}
			v, err := c.Broadcast(1, payload)
			if err != nil {
				return err
			}
			got := v.([]float64)
			if len(got) != 3 || got[0] != 3 || got[2] != 4 {
				return fmt.Errorf("rank %d broadcast = %v", c.Rank(), got)
			}
			// Successive collectives must not cross-match.
			v2, err := c.Broadcast(0, func() any {
				if c.Rank() == 0 {
					return "round2"
				}
				return nil
			}())
			if err != nil || v2.(string) != "round2" {
				return fmt.Errorf("second broadcast: %v %v", v2, err)
			}
			return nil
		})
		if err != nil {
			t.Errorf("%v: %v", tk, err)
		}
	}
}

func TestBroadcastValidation(t *testing.T) {
	err := Run(2, Channels, func(c *Comm) error {
		if _, err := c.Broadcast(5, nil); err == nil {
			return fmt.Errorf("bad root accepted")
		}
		return nil
	})
	if err != nil {
		t.Error(err)
	}
}

func TestGather(t *testing.T) {
	for _, tk := range transports() {
		err := Run(4, tk, func(c *Comm) error {
			vals, err := c.Gather(2, c.Rank()*10)
			if err != nil {
				return err
			}
			if c.Rank() == 2 {
				for r := 0; r < 4; r++ {
					if vals[r].(int) != r*10 {
						return fmt.Errorf("gather[%d] = %v", r, vals[r])
					}
				}
			} else if vals != nil {
				return fmt.Errorf("non-root got gather result")
			}
			return nil
		})
		if err != nil {
			t.Errorf("%v: %v", tk, err)
		}
	}
}

func TestNodeErrorPropagates(t *testing.T) {
	for _, tk := range transports() {
		sentinel := errors.New("node 2 exploded")
		err := Run(3, tk, func(c *Comm) error {
			if c.Rank() == 2 {
				return sentinel
			}
			// These ranks block in a meeting that can never complete;
			// the teardown must unblock them with an error.
			err := meet(c)
			if err == nil {
				return fmt.Errorf("meeting succeeded despite dead peer")
			}
			return nil
		})
		if !errors.Is(err, sentinel) {
			t.Errorf("%v: err = %v, want sentinel", tk, err)
		}
	}
}

func TestLargePayloadTCP(t *testing.T) {
	// A NORM-accumulator-sized float32 slice across real sockets.
	big := make([]float32, 1<<20) // 4 MiB
	for i := range big {
		big[i] = float32(i % 1000)
	}
	err := Run(2, TCP, func(c *Comm) error {
		if c.Rank() == 0 {
			return c.Send(1, 3, big)
		}
		v, err := c.Recv(0, 3)
		if err != nil {
			return err
		}
		got := v.([]float32)
		if len(got) != len(big) {
			return fmt.Errorf("len %d", len(got))
		}
		for i := 0; i < len(got); i += 100000 {
			if math.Abs(float64(got[i]-big[i])) > 0 {
				return fmt.Errorf("corruption at %d", i)
			}
		}
		return nil
	})
	if err != nil {
		t.Error(err)
	}
}

func TestManyRanksChannels(t *testing.T) {
	err := Run(16, Channels, func(c *Comm) error {
		if sum, err := gatherSum(c, 1); err != nil || sum != 16 {
			return fmt.Errorf("gather+broadcast = %v, %v", sum, err)
		}
		return nil
	})
	if err != nil {
		t.Error(err)
	}
}
