package mpi

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"runtime"
	"strings"
	"testing"

	"repro/cluster"
	"repro/internal/topo"
	"repro/internal/vtime"
)

func xeonCfg(np int, s cluster.Stack) Config {
	return Config{Cluster: cluster.Xeon2(), Stack: s, NP: np}
}

func gridCfg(np int, s cluster.Stack) Config {
	return Config{Cluster: cluster.Grid5000(), Stack: s, NP: np}
}

// allStacks enumerates every stack preset for cross-backend tests.
func allStacks() []cluster.Stack {
	return []cluster.Stack{
		cluster.MPICH2NmadIB(),
		cluster.MPICH2NmadIB().WithPIOMan(true),
		cluster.MPICH2NmadMX(),
		cluster.MPICH2NmadMulti(),
		cluster.MVAPICH2(),
		cluster.OpenMPIIB(),
		cluster.OpenMPIBTLMX(),
		cluster.OpenMPICMMX(),
		cluster.MPICH2NemesisGeneric(),
	}
}

func TestPingPongAllStacksAllSizes(t *testing.T) {
	sizes := []int{0, 1, 64, 4 << 10, 32 << 10, 256 << 10, 2 << 20}
	for _, s := range allStacks() {
		s := s
		t.Run(s.Name, func(t *testing.T) {
			for _, size := range sizes {
				msg := make([]byte, size)
				for i := range msg {
					msg[i] = byte(i * 31)
				}
				got := make([]byte, size)
				_, err := Run(xeonCfg(2, s), func(c *Comm) {
					if c.Rank() == 0 {
						c.Send(1, 7, msg)
						c.Recv(1, 8, got)
					} else {
						buf := make([]byte, size)
						c.Recv(0, 7, buf)
						c.Send(0, 8, buf)
					}
				})
				if err != nil {
					t.Fatalf("size %d: %v", size, err)
				}
				if !bytes.Equal(got, msg) {
					t.Fatalf("size %d: payload corrupted", size)
				}
			}
		})
	}
}

func TestDeterministicTiming(t *testing.T) {
	run := func() float64 {
		var dt float64
		_, err := Run(xeonCfg(2, cluster.MPICH2NmadIB()), func(c *Comm) {
			buf := make([]byte, 1024)
			t0 := c.Wtime()
			for i := 0; i < 10; i++ {
				if c.Rank() == 0 {
					c.Send(1, 1, buf)
					c.Recv(1, 1, buf)
				} else {
					c.Recv(0, 1, buf)
					c.Send(0, 1, buf)
				}
			}
			if c.Rank() == 0 {
				dt = c.Wtime() - t0
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		return dt
	}
	a, b := run(), run()
	if a != b || a <= 0 {
		t.Fatalf("non-deterministic timing: %v vs %v", a, b)
	}
}

// TestLatencyCalibration checks the one-way small-message latencies against
// the paper's reported values (§4.1.1) within 15%.
func TestLatencyCalibration(t *testing.T) {
	oneWay := func(s cluster.Stack, anySource bool) float64 {
		const iters = 200
		var dt float64
		cfg := xeonCfg(2, s)
		_, err := Run(cfg, func(c *Comm) {
			buf := make([]byte, 4)
			src0, src1 := 1, 0
			if anySource {
				// Wildcard on every receive, as in the paper's AS run.
				src0, src1 = AnySource, AnySource
			}
			c.Barrier()
			t0 := c.Wtime()
			for i := 0; i < iters; i++ {
				if c.Rank() == 0 {
					c.Send(1, 1, buf)
					c.Recv(src0, 1, buf)
				} else {
					c.Recv(src1, 1, buf)
					c.Send(0, 1, buf)
				}
			}
			if c.Rank() == 0 {
				dt = (c.Wtime() - t0) / (2 * iters) * 1e6 // one-way µs
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		return dt
	}

	checks := []struct {
		name   string
		stack  cluster.Stack
		any    bool
		target float64 // µs
	}{
		{"mvapich2", cluster.MVAPICH2(), false, 1.5},
		{"openmpi-ib", cluster.OpenMPIIB(), false, 1.6},
		{"nmad-ib", cluster.MPICH2NmadIB(), false, 2.1},
		{"nmad-ib-anysource", cluster.MPICH2NmadIB(), true, 2.4},
	}
	for _, ck := range checks {
		got := oneWay(ck.stack, ck.any)
		if math.Abs(got-ck.target)/ck.target > 0.15 {
			t.Errorf("%s: one-way latency %.3f µs, want %.2f ±15%%", ck.name, got, ck.target)
		} else {
			t.Logf("%s: %.3f µs (target %.2f)", ck.name, got, ck.target)
		}
	}
}

// TestBandwidthOrdering checks the large/medium-message relationships of
// Fig. 4(b): MVAPICH2 fastest at 1 MB; NMad beats Open MPI at medium sizes;
// everyone lands near the wire rate at 64 MB.
func TestBandwidthOrdering(t *testing.T) {
	bw := func(s cluster.Stack, size int) float64 {
		var mbps float64
		_, err := Run(xeonCfg(2, s), func(c *Comm) {
			msg := make([]byte, size)
			c.Barrier()
			t0 := c.Wtime()
			const iters = 3
			for i := 0; i < iters; i++ {
				if c.Rank() == 0 {
					c.Send(1, 1, msg)
					c.Recv(1, 1, msg)
				} else {
					c.Recv(0, 1, msg)
					c.Send(0, 1, msg)
				}
			}
			if c.Rank() == 0 {
				dt := (c.Wtime() - t0) / (2 * iters)
				mbps = float64(size) / dt / (1 << 20)
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		return mbps
	}
	mv := bw(cluster.MVAPICH2(), 1<<20)
	nm := bw(cluster.MPICH2NmadIB(), 1<<20)
	om := bw(cluster.OpenMPIIB(), 1<<20)
	if !(mv > nm) {
		t.Errorf("1MB: MVAPICH2 (%.0f) should beat NMad (%.0f)", mv, nm)
	}
	nm16 := bw(cluster.MPICH2NmadIB(), 16<<10)
	om16 := bw(cluster.OpenMPIIB(), 16<<10)
	if !(nm16 > om16) {
		t.Errorf("16KB: NMad (%.0f) should beat OpenMPI (%.0f)", nm16, om16)
	}
	big := bw(cluster.MPICH2NmadIB(), 64<<20)
	if big < 1000 || big > 1250 {
		t.Errorf("64MB NMad bandwidth %.0f MB/s, want near wire ~1150-1200", big)
	}
	_ = om
}

// TestMultirailAdditive checks Fig. 5(b): the heterogeneous multirail
// bandwidth approaches the sum of the individual rails.
func TestMultirailAdditive(t *testing.T) {
	bw := func(s cluster.Stack) float64 {
		var mbps float64
		_, err := Run(xeonCfg(2, s), func(c *Comm) {
			msg := make([]byte, 16<<20)
			c.Barrier()
			t0 := c.Wtime()
			if c.Rank() == 0 {
				c.Send(1, 1, msg)
				c.Recv(1, 1, msg)
			} else {
				c.Recv(0, 1, msg)
				c.Send(0, 1, msg)
			}
			if c.Rank() == 0 {
				mbps = float64(len(msg)) / ((c.Wtime() - t0) / 2) / (1 << 20)
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		return mbps
	}
	ib := bw(cluster.MPICH2NmadIB())
	mx := bw(cluster.MPICH2NmadMX())
	multi := bw(cluster.MPICH2NmadMulti())
	if multi < 1.6*ib || multi < 1.6*mx {
		t.Errorf("multirail %.0f MB/s not additive (ib %.0f, mx %.0f)", multi, ib, mx)
	}
	if multi > ib+mx {
		t.Errorf("multirail %.0f exceeds sum of rails (%.0f)", multi, ib+mx)
	}
}

func TestAnySourceOverNetworkAndShm(t *testing.T) {
	// 4 ranks on 2 nodes: rank 0 receives ANY_SOURCE from both its
	// same-node peer (rank 2, via shm on node 0 with round-robin) and a
	// remote one. Round-robin placement on Xeon2: ranks 0,2 on node0;
	// 1,3 on node1.
	for _, s := range []cluster.Stack{cluster.MPICH2NmadIB(), cluster.MVAPICH2()} {
		s := s
		t.Run(s.Name, func(t *testing.T) {
			var sources []int
			_, err := Run(xeonCfg(4, s), func(c *Comm) {
				switch c.Rank() {
				case 0:
					for i := 0; i < 3; i++ {
						buf := make([]byte, 8)
						st := c.Recv(AnySource, 5, buf)
						sources = append(sources, st.Source)
						if string(buf[:st.Len]) != fmt.Sprintf("from-%d", st.Source) {
							t.Errorf("payload mismatch from %d: %q", st.Source, buf[:st.Len])
						}
					}
				default:
					c.Send(0, 5, []byte(fmt.Sprintf("from-%d", c.Rank())))
				}
			})
			if err != nil {
				t.Fatal(err)
			}
			if len(sources) != 3 {
				t.Fatalf("received %d messages, want 3", len(sources))
			}
			seen := map[int]bool{}
			for _, s := range sources {
				seen[s] = true
			}
			if !seen[1] || !seen[2] || !seen[3] {
				t.Fatalf("sources = %v", sources)
			}
		})
	}
}

func TestAnySourceOrderingWithRegularRecvs(t *testing.T) {
	// §3.2.2: a regular recv posted after an ANY_SOURCE recv with the same
	// tag must not overtake it. Rank 1 sends two messages with tag 9; the
	// AS recv must get the first.
	_, err := Run(xeonCfg(2, cluster.MPICH2NmadIB()), func(c *Comm) {
		if c.Rank() == 1 {
			c.Send(0, 9, []byte("first"))
			c.Send(0, 9, []byte("second"))
			return
		}
		bufAS := make([]byte, 8)
		bufReg := make([]byte, 8)
		rAS := c.Irecv(AnySource, 9, bufAS)
		rReg := c.Irecv(1, 9, bufReg)
		c.WaitAll(rAS, rReg)
		if string(bufAS[:5]) != "first" {
			t.Errorf("ANY_SOURCE got %q, want \"first\"", bufAS[:5])
		}
		if string(bufReg[:6]) != "second" {
			t.Errorf("regular recv got %q, want \"second\"", bufReg[:6])
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestCollectivesAllStacks(t *testing.T) {
	for _, s := range []cluster.Stack{
		cluster.MPICH2NmadIB(),
		cluster.MPICH2NmadIB().WithPIOMan(true),
		cluster.MVAPICH2(),
		cluster.MPICH2NemesisGeneric(),
	} {
		s := s
		t.Run(s.Name, func(t *testing.T) {
			for _, np := range []int{2, 5, 8, 13, 16} {
				np := np
				_, err := Run(gridCfg(np, s), func(c *Comm) {
					// Allreduce sum of ranks.
					x := []float64{float64(c.Rank()), 1}
					c.AllreduceF64(x, OpSum)
					wantSum := float64(np*(np-1)) / 2
					if x[0] != wantSum || x[1] != float64(np) {
						t.Errorf("np=%d allreduce got %v", np, x)
					}
					// Bcast from rank np-1.
					data := make([]byte, 16)
					if c.Rank() == np-1 {
						copy(data, "broadcast-data")
					}
					c.Bcast(np-1, data)
					if string(data[:14]) != "broadcast-data" {
						t.Errorf("np=%d bcast got %q", np, data)
					}
					// Reduce max to root 0.
					y := []float64{float64(c.Rank() * 10)}
					c.ReduceF64(0, y, OpMax)
					if c.Rank() == 0 && y[0] != float64((np-1)*10) {
						t.Errorf("np=%d reduce got %v", np, y)
					}
					// Allgather.
					out := make([][]byte, np)
					for i := range out {
						out[i] = make([]byte, 4)
					}
					mine := []byte{byte(c.Rank()), 0xAA, 0xBB, 0xCC}
					c.Allgather(mine, out)
					for r := 0; r < np; r++ {
						if out[r][0] != byte(r) || out[r][1] != 0xAA {
							t.Errorf("np=%d allgather out[%d] = %v", np, r, out[r])
						}
					}
					// Alltoall.
					snd := make([][]byte, np)
					rcv := make([][]byte, np)
					for i := range snd {
						snd[i] = []byte{byte(c.Rank()), byte(i)}
						rcv[i] = make([]byte, 2)
					}
					c.Alltoall(snd, rcv)
					for r := 0; r < np; r++ {
						if rcv[r][0] != byte(r) || rcv[r][1] != byte(c.Rank()) {
							t.Errorf("np=%d alltoall rcv[%d] = %v", np, r, rcv[r])
						}
					}
					c.Barrier()
				})
				if err != nil {
					t.Fatalf("np=%d: %v", np, err)
				}
			}
		})
	}
}

func TestSelfSendRecv(t *testing.T) {
	_, err := Run(xeonCfg(2, cluster.MPICH2NmadIB()), func(c *Comm) {
		if c.Rank() == 0 {
			c.Send(0, 3, []byte("self"))
			buf := make([]byte, 8)
			st := c.Recv(0, 3, buf)
			if string(buf[:st.Len]) != "self" || st.Source != 0 {
				t.Errorf("self recv st=%+v buf=%q", st, buf)
			}
			// Reverse order: recv posted first.
			q := c.Irecv(0, 4, buf)
			c.Send(0, 4, []byte("second"))
			st = c.Wait(q)
			if string(buf[:st.Len]) != "second" {
				t.Errorf("posted-first self recv %q", buf[:st.Len])
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestDeadlockDetection(t *testing.T) {
	_, err := Run(xeonCfg(2, cluster.MPICH2NmadIB()), func(c *Comm) {
		if c.Rank() == 0 {
			buf := make([]byte, 8)
			c.Recv(1, 99, buf) // never sent
		}
	})
	if _, ok := err.(*vtime.DeadlockError); !ok {
		t.Fatalf("err = %v, want DeadlockError", err)
	}
}

// TestRankPanicIsAnError: rank 3 panics while the other three wait for it
// inside an allreduce. Run returns an error naming the rank's thread, the
// virtual time and the panic value, with the rank's stack; the host process
// (this test binary) survives. A panic a rank recovers itself is its own
// business.
func TestRankPanicIsAnError(t *testing.T) {
	_, err := Run(xeonCfg(4, cluster.MPICH2NmadIB().WithPIOMan(true)), func(c *Comm) {
		func() {
			defer func() { _ = recover() }()
			panic("handled in the rank")
		}()
		x := []float64{float64(c.Rank())}
		c.AllreduceF64(x, OpSum)
		if c.Rank() == 3 {
			c.Compute(1e-3)
			panic("bad argument on rank 3")
		}
		c.AllreduceF64(x, OpSum)
	})
	var pe *vtime.ProcPanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want one wrapping *vtime.ProcPanicError", err)
	}
	if pe.Proc != "app3" || pe.Now < vtime.Time(vtime.Millisecond) {
		t.Fatalf("panic attributed to %q at t=%dns, want app3 after its 1 ms of compute", pe.Proc, pe.Now)
	}
	for _, want := range []string{"app3", fmt.Sprintf("t=%dns", int64(pe.Now)), "bad argument on rank 3", "TestRankPanicIsAnError"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error lacks %q:\n%v", want, err)
		}
	}
}

// TestRunsLeaveNoGoroutines: every thread of a finished world — ranks and
// PIOMan workers — is a coroutine that ended with its function.
func TestRunsLeaveNoGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()
	for i := 0; i < 50; i++ {
		_, err := Run(xeonCfg(4, cluster.MPICH2NmadIB().WithPIOMan(true)), func(c *Comm) {
			x := []float64{1}
			c.AllreduceF64(x, OpSum)
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	// Not !=: the previous test's own goroutine may still have been exiting
	// when before was read.
	if n := runtime.NumGoroutine(); n > before {
		t.Fatalf("%d goroutines after 50 runs, %d before them", n, before)
	}
}

func TestDupContexts(t *testing.T) {
	_, err := Run(xeonCfg(2, cluster.MPICH2NmadIB()), func(c *Comm) {
		d := c.Dup()
		if c.Rank() == 0 {
			c.Send(1, 1, []byte("on-c"))
			d.Send(1, 1, []byte("on-d"))
		} else {
			bufD := make([]byte, 8)
			bufC := make([]byte, 8)
			// Post d's receive first: contexts must separate the streams.
			qd := d.Irecv(0, 1, bufD)
			qc := c.Irecv(0, 1, bufC)
			d.Wait(qd)
			c.Wait(qc)
			if string(bufC[:4]) != "on-c" || string(bufD[:4]) != "on-d" {
				t.Errorf("bufC=%q bufD=%q", bufC[:4], bufD[:4])
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestComputeAndWtime(t *testing.T) {
	_, err := Run(xeonCfg(1, cluster.MPICH2NmadIB()), func(c *Comm) {
		t0 := c.Wtime()
		c.Compute(0.25)
		if dt := c.Wtime() - t0; math.Abs(dt-0.25) > 1e-9 {
			t.Errorf("Compute(0.25) advanced %v", dt)
		}
		t0 = c.Wtime()
		c.ComputeFlops(3.0e9) // 1 second at 3 GF/s (Xeon2 preset)
		if dt := c.Wtime() - t0; math.Abs(dt-1.0) > 1e-6 {
			t.Errorf("ComputeFlops advanced %v", dt)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestReportRailStats(t *testing.T) {
	rep, err := Run(xeonCfg(2, cluster.MPICH2NmadIB()), func(c *Comm) {
		if c.Rank() == 0 {
			c.Send(1, 1, make([]byte, 1000))
		} else {
			c.Recv(0, 1, make([]byte, 1000))
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Rails) != 1 || rep.Rails[0].Packets == 0 {
		t.Fatalf("report = %+v", rep)
	}
	if rep.Seconds <= 0 {
		t.Fatal("virtual time did not advance")
	}
}

func TestManyRanksMixedTraffic(t *testing.T) {
	// 16 ranks on 10 nodes: shm and network mixed; ring + random pairs.
	_, err := Run(gridCfg(16, cluster.MPICH2NmadIB()), func(c *Comm) {
		np := c.Size()
		right := (c.Rank() + 1) % np
		left := (c.Rank() - 1 + np) % np
		buf := make([]byte, 512)
		msg := make([]byte, 512)
		for i := range msg {
			msg[i] = byte(c.Rank())
		}
		for iter := 0; iter < 5; iter++ {
			st := c.Sendrecv(right, 1, msg, left, 1, buf)
			if st.Source != left || buf[0] != byte(left) {
				t.Errorf("ring iter %d: st=%+v", iter, st)
			}
		}
		c.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := Run(Config{Cluster: topo.Xeon2(), Stack: cluster.MPICH2NmadIB(), NP: 0}, nil); err == nil {
		t.Error("NP=0 must fail")
	}
	bad := cluster.MPICH2NmadIB()
	bad.Rails = nil
	if _, err := Run(Config{Cluster: topo.Xeon2(), Stack: bad, NP: 2}, nil); err == nil {
		t.Error("no rails with cross-node ranks must fail")
	}
	cfg := Config{Cluster: topo.Xeon2(), Stack: cluster.MPICH2NmadIB(), NP: 2,
		Placement: topo.Placement{0}}
	if _, err := Run(cfg, nil); err == nil {
		t.Error("short placement must fail")
	}
}
