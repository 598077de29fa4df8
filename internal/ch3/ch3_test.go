package ch3

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/marcel"
	"repro/internal/nemesis"
	"repro/internal/pioman"
	"repro/internal/vtime"
)

// nullBackend satisfies NetBackend for shm-only tests.
type nullBackend struct{ anyCancelled int }

func (n *nullBackend) Name() string                    { return "null" }
func (n *nullBackend) CentralMatching() bool           { return true }
func (n *nullBackend) Isend(*vtime.Proc, *Request)     { panic("no network in test") }
func (n *nullBackend) PostRecv(*Request)               {}
func (n *nullBackend) PostRecvAny(*Request)            {}
func (n *nullBackend) ShmMatchedAny(*Request)          { n.anyCancelled++ }
func (n *nullBackend) Progress() (int, vtime.Duration) { return 0, 0 }

// node2 builds two CH3 processes on one node connected by shared memory.
func node2(t *testing.T, shmOpt nemesis.Options, cfg Config) (*vtime.Engine, []*Process) {
	t.Helper()
	return nodeN(t, 2, shmOpt, cfg)
}

func nodeN(t *testing.T, n int, shmOpt nemesis.Options, cfg Config) (*vtime.Engine, []*Process) {
	t.Helper()
	e := vtime.NewEngine()
	node := marcel.NewNode(e, "n0", 8)
	var eps []*nemesis.Endpoint
	for i := 0; i < n; i++ {
		ep, err := nemesis.NewEndpoint(e, i, shmOpt)
		if err != nil {
			t.Fatal(err)
		}
		eps = append(eps, ep)
	}
	for i := range eps {
		for j := range eps {
			if i != j {
				eps[i].ConnectLocal(eps[j])
			}
		}
	}
	same := func(int) bool { return true }
	var procs []*Process
	for i := 0; i < n; i++ {
		mgr := pioman.New(e, node, fmt.Sprintf("p%d", i), pioman.Config{})
		p := NewProcess(e, i, n, mgr, eps[i], same, cfg)
		p.SetBackend(&nullBackend{})
		procs = append(procs, p)
	}
	return e, procs
}

func spawn2(t *testing.T, e *vtime.Engine, f0, f1 func(p *vtime.Proc)) {
	t.Helper()
	e.Spawn("r0", f0)
	e.Spawn("r1", f1)
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestShmEagerSmall(t *testing.T) {
	e, ps := node2(t, nemesis.Options{}, Config{})
	msg := []byte("intra-node hello")
	buf := make([]byte, 64)
	var st Status
	spawn2(t, e,
		func(p *vtime.Proc) {
			r := ps[0].Isend(p, 1, 5, 0, msg)
			ps[0].Wait(p, r)
		},
		func(p *vtime.Proc) {
			r := ps[1].Irecv(p, 0, 5, 0, buf)
			ps[1].Wait(p, r)
			st = r.Stat
		})
	if !bytes.Equal(buf[:st.Len], msg) || st.Source != 0 || st.Tag != 5 {
		t.Fatalf("st=%+v buf=%q", st, buf[:st.Len])
	}
}

func TestShmEagerMultiFragment(t *testing.T) {
	// Cell payload 1K, message 10K: 10 fragments.
	e, ps := node2(t, nemesis.Options{CellPayload: 1024, NumCells: 16}, Config{})
	msg := make([]byte, 10*1024)
	for i := range msg {
		msg[i] = byte(i * 7)
	}
	buf := make([]byte, len(msg))
	spawn2(t, e,
		func(p *vtime.Proc) { ps[0].Wait(p, ps[0].Isend(p, 1, 1, 0, msg)) },
		func(p *vtime.Proc) { ps[1].Wait(p, ps[1].Irecv(p, 0, 1, 0, buf)) })
	if !bytes.Equal(buf, msg) {
		t.Fatal("multi-fragment payload corrupted")
	}
}

func TestShmFlowControlTinyPool(t *testing.T) {
	// 2 cells of 512B for a 64KB eager message: heavy recycling required.
	e, ps := node2(t, nemesis.Options{CellPayload: 512, NumCells: 2}, Config{})
	msg := make([]byte, 64*1024)
	for i := range msg {
		msg[i] = byte(i >> 3)
	}
	buf := make([]byte, len(msg))
	spawn2(t, e,
		func(p *vtime.Proc) { ps[0].Wait(p, ps[0].Isend(p, 1, 1, 0, msg)) },
		func(p *vtime.Proc) { ps[1].Wait(p, ps[1].Irecv(p, 0, 1, 0, buf)) })
	if !bytes.Equal(buf, msg) {
		t.Fatal("flow-controlled payload corrupted")
	}
}

func TestShmRendezvousLarge(t *testing.T) {
	e, ps := node2(t, nemesis.Options{}, Config{EagerShmMax: 4096})
	msg := make([]byte, 512*1024)
	for i := range msg {
		msg[i] = byte(i * 13)
	}
	buf := make([]byte, len(msg))
	spawn2(t, e,
		func(p *vtime.Proc) { ps[0].Wait(p, ps[0].Isend(p, 1, 2, 0, msg)) },
		func(p *vtime.Proc) { ps[1].Wait(p, ps[1].Irecv(p, 0, 2, 0, buf)) })
	if !bytes.Equal(buf, msg) {
		t.Fatal("rendezvous payload corrupted")
	}
	if ps[0].ShmRdvSends != 1 {
		t.Fatalf("ShmRdvSends = %d, want 1", ps[0].ShmRdvSends)
	}
}

func TestShmRendezvousUnexpectedRTS(t *testing.T) {
	e, ps := node2(t, nemesis.Options{}, Config{EagerShmMax: 1024})
	msg := make([]byte, 100*1024)
	for i := range msg {
		msg[i] = byte(i)
	}
	buf := make([]byte, len(msg))
	spawn2(t, e,
		func(p *vtime.Proc) { ps[0].Wait(p, ps[0].Isend(p, 1, 2, 0, msg)) },
		func(p *vtime.Proc) {
			p.Sleep(10 * vtime.Microsecond)
			ps[1].Mgr.Progress(p) // RTS lands unexpected
			if ps[1].UnexpectedQLen() != 1 {
				t.Errorf("uq len = %d, want 1", ps[1].UnexpectedQLen())
			}
			ps[1].Wait(p, ps[1].Irecv(p, 0, 2, 0, buf))
		})
	if !bytes.Equal(buf, msg) {
		t.Fatal("late-posted rendezvous corrupted")
	}
}

func TestShmUnexpectedEager(t *testing.T) {
	e, ps := node2(t, nemesis.Options{}, Config{})
	msg := []byte("surprise")
	buf := make([]byte, 16)
	spawn2(t, e,
		func(p *vtime.Proc) { ps[0].Wait(p, ps[0].Isend(p, 1, 9, 0, msg)) },
		func(p *vtime.Proc) {
			p.Sleep(10 * vtime.Microsecond)
			ps[1].Mgr.Progress(p)
			r := ps[1].Irecv(p, 0, 9, 0, buf)
			ps[1].Wait(p, r)
			if !r.Done() {
				t.Error("unexpected eager not consumed at Irecv")
			}
		})
	if string(buf[:8]) != "surprise" {
		t.Fatalf("buf=%q", buf)
	}
}

func TestAnySourceShm(t *testing.T) {
	e, ps := nodeN(t, 3, nemesis.Options{}, Config{})
	buf := make([]byte, 16)
	var st Status
	for i := range ps {
		i := i
		e.Spawn(fmt.Sprintf("r%d", i), func(p *vtime.Proc) {
			switch i {
			case 2:
				r := ps[2].Irecv(p, int(AnySource), 1, 0, buf)
				ps[2].Wait(p, r)
				st = r.Stat
			case 1:
				p.Sleep(5 * vtime.Microsecond)
				ps[1].Wait(p, ps[1].Isend(p, 2, 1, 0, []byte("one")))
			}
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if st.Source != 1 || string(buf[:3]) != "one" {
		t.Fatalf("st=%+v buf=%q", st, buf)
	}
	if ps[2].Backend().(*nullBackend).anyCancelled != 1 {
		t.Fatal("shm ANY_SOURCE match must inform the backend (§3.2.2)")
	}
}

func TestAnyTagShm(t *testing.T) {
	e, ps := node2(t, nemesis.Options{}, Config{})
	buf := make([]byte, 8)
	var st Status
	spawn2(t, e,
		func(p *vtime.Proc) { ps[0].Wait(p, ps[0].Isend(p, 1, 4242, 0, []byte("any"))) },
		func(p *vtime.Proc) {
			r := ps[1].Irecv(p, 0, AnyTag, 0, buf)
			ps[1].Wait(p, r)
			st = r.Stat
		})
	if st.Tag != 4242 || string(buf[:3]) != "any" {
		t.Fatalf("st=%+v", st)
	}
}

func TestContextSeparation(t *testing.T) {
	// A message on ctx 1 must not match a receive on ctx 0.
	e, ps := node2(t, nemesis.Options{}, Config{})
	buf0 := make([]byte, 8)
	buf1 := make([]byte, 8)
	spawn2(t, e,
		func(p *vtime.Proc) {
			ps[0].Isend(p, 1, 1, 1, []byte("ctx1"))
			ps[0].Wait(p, ps[0].Isend(p, 1, 1, 0, []byte("ctx0")))
		},
		func(p *vtime.Proc) {
			r0 := ps[1].Irecv(p, 0, 1, 0, buf0)
			ps[1].Wait(p, r0)
			r1 := ps[1].Irecv(p, 0, 1, 1, buf1)
			ps[1].Wait(p, r1)
		})
	if string(buf0[:4]) != "ctx0" || string(buf1[:4]) != "ctx1" {
		t.Fatalf("buf0=%q buf1=%q", buf0, buf1)
	}
}

func TestOrderingManySmall(t *testing.T) {
	e, ps := node2(t, nemesis.Options{CellPayload: 256, NumCells: 4}, Config{})
	const n = 40
	var got []byte
	spawn2(t, e,
		func(p *vtime.Proc) {
			var last *Request
			for i := 0; i < n; i++ {
				last = ps[0].Isend(p, 1, 7, 0, []byte{byte(i)})
			}
			ps[0].Wait(p, last)
		},
		func(p *vtime.Proc) {
			for i := 0; i < n; i++ {
				b := make([]byte, 1)
				ps[1].Wait(p, ps[1].Irecv(p, 0, 7, 0, b))
				got = append(got, b[0])
			}
		})
	for i := 0; i < n; i++ {
		if got[i] != byte(i) {
			t.Fatalf("order broken at %d: %v", i, got)
		}
	}
}

func TestTruncationShm(t *testing.T) {
	e, ps := node2(t, nemesis.Options{}, Config{})
	buf := make([]byte, 3)
	var st Status
	spawn2(t, e,
		func(p *vtime.Proc) { ps[0].Wait(p, ps[0].Isend(p, 1, 1, 0, []byte("longmessage"))) },
		func(p *vtime.Proc) {
			r := ps[1].Irecv(p, 0, 1, 0, buf)
			ps[1].Wait(p, r)
			st = r.Stat
		})
	if !st.Truncated || st.Len != 3 || string(buf) != "lon" {
		t.Fatalf("st=%+v buf=%q", st, buf)
	}
}

func TestZeroByteShm(t *testing.T) {
	e, ps := node2(t, nemesis.Options{}, Config{})
	var st Status
	spawn2(t, e,
		func(p *vtime.Proc) { ps[0].Wait(p, ps[0].Isend(p, 1, 1, 0, nil)) },
		func(p *vtime.Proc) {
			r := ps[1].Irecv(p, 0, 1, 0, nil)
			ps[1].Wait(p, r)
			st = r.Stat
		})
	if st.Len != 0 || st.Truncated {
		t.Fatalf("st=%+v", st)
	}
}

// waitAll blocks until every request completes, in one progress-regime wait.
func waitAll(p *vtime.Proc, pr *Process, rs []*Request) {
	pr.Mgr.WaitUntil(p, func() bool {
		for _, r := range rs {
			if !r.Done() {
				return false
			}
		}
		return true
	})
}

func TestWaitAll(t *testing.T) {
	e, ps := node2(t, nemesis.Options{}, Config{})
	bufs := make([][]byte, 4)
	spawn2(t, e,
		func(p *vtime.Proc) {
			var rs []*Request
			for i := 0; i < 4; i++ {
				rs = append(rs, ps[0].Isend(p, 1, int32(i), 0, []byte{byte(i)}))
			}
			waitAll(p, ps[0], rs)
		},
		func(p *vtime.Proc) {
			var rs []*Request
			for i := 0; i < 4; i++ {
				bufs[i] = make([]byte, 1)
				rs = append(rs, ps[1].Irecv(p, 0, int32(i), 0, bufs[i]))
			}
			waitAll(p, ps[1], rs)
		})
	for i := 0; i < 4; i++ {
		if bufs[i][0] != byte(i) {
			t.Fatalf("bufs[%d]=%v", i, bufs[i])
		}
	}
}

func TestPartialAssemblyClaim(t *testing.T) {
	// A multi-fragment message arrives partially before the receive posts:
	// the receive must claim the in-flight entry and complete correctly.
	e, ps := node2(t, nemesis.Options{CellPayload: 1024, NumCells: 2}, Config{})
	msg := make([]byte, 8*1024)
	for i := range msg {
		msg[i] = byte(i * 3)
	}
	buf := make([]byte, len(msg))
	spawn2(t, e,
		func(p *vtime.Proc) { ps[0].Wait(p, ps[0].Isend(p, 1, 1, 0, msg)) },
		func(p *vtime.Proc) {
			// Poll exactly once so only some fragments land (2 cells).
			p.Sleep(2 * vtime.Microsecond)
			ps[1].Mgr.Progress(p)
			r := ps[1].Irecv(p, 0, 1, 0, buf)
			ps[1].Wait(p, r)
		})
	if !bytes.Equal(buf, msg) {
		t.Fatal("claimed partial assembly corrupted")
	}
}

func TestRequestCallbacksAndAccessors(t *testing.T) {
	e, ps := node2(t, nemesis.Options{}, Config{})
	fired := 0
	spawn2(t, e,
		func(p *vtime.Proc) {
			r := ps[0].Isend(p, 1, 3, 7, []byte("x"))
			if r.IsRecv() || r.Dest() != 1 {
				t.Error("send accessors wrong")
			}
			r.AddCallback(func() { fired++ })
			ps[0].Wait(p, r)
		},
		func(p *vtime.Proc) {
			b := make([]byte, 1)
			r := ps[1].Irecv(p, 0, 3, 7, b)
			ctx, src, tag := r.MatchTriple()
			if ctx != 7 || src != 0 || tag != 3 {
				t.Errorf("triple = %d %d %d", ctx, src, tag)
			}
			ps[1].Wait(p, r)
		})
	if fired != 1 {
		t.Fatalf("callback fired %d times", fired)
	}
}

func TestCallbackOnAlreadyDone(t *testing.T) {
	e, ps := node2(t, nemesis.Options{}, Config{})
	fired := false
	spawn2(t, e,
		func(p *vtime.Proc) {
			r := ps[0].Isend(p, 1, 1, 0, []byte("x"))
			ps[0].Wait(p, r)
			r.AddCallback(func() { fired = true })
		},
		func(p *vtime.Proc) {
			b := make([]byte, 1)
			ps[1].Wait(p, ps[1].Irecv(p, 0, 1, 0, b))
		})
	if !fired {
		t.Fatal("callback on done request must fire immediately")
	}
}

func TestDoubleCompletePanics(t *testing.T) {
	r := &Request{}
	r.Complete()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on double completion")
		}
	}()
	r.Complete()
}

func TestSendSWChargedToCaller(t *testing.T) {
	e, ps := node2(t, nemesis.Options{}, Config{SendSW: 500, RecvSW: 300})
	spawn2(t, e,
		func(p *vtime.Proc) {
			start := p.Now()
			r := ps[0].Isend(p, 1, 1, 0, []byte("x"))
			if p.Now()-start < 500 {
				t.Errorf("SendSW not charged: %d", p.Now()-start)
			}
			ps[0].Wait(p, r)
		},
		func(p *vtime.Proc) {
			start := p.Now()
			b := make([]byte, 1)
			r := ps[1].Irecv(p, 0, 1, 0, b)
			if p.Now()-start < 300 {
				t.Errorf("RecvSW not charged: %d", p.Now()-start)
			}
			ps[1].Wait(p, r)
		})
}

// TestReleaseInFlight: Release has MPI_Request_free's meaning. A send
// released while still in flight completes as usual — its callback runs and
// the receiver gets every byte — and goes back to the free list when it
// completes; a completed receive goes back at once. With NoPooling neither
// is recycled.
func TestReleaseInFlight(t *testing.T) {
	for _, noPooling := range []bool{false, true} {
		e, ps := node2(t, nemesis.Options{}, Config{NoPooling: noPooling})
		msg := bytes.Repeat([]byte{7}, 100<<10) // above EagerShmMax: rendezvous
		buf := make([]byte, len(msg))
		want := 1
		if noPooling {
			want = 0
		}
		fired := false
		spawn2(t, e,
			func(p *vtime.Proc) {
				r := ps[0].Isend(p, 1, 1, 0, msg)
				if r.Done() {
					t.Fatal("rendezvous send done before its receive is posted")
				}
				r.AddCallback(func() { fired = true })
				free := ps[0].reqFree.Len()
				ps[0].Release(r)
				ps[0].Mgr.WaitUntil(p, func() bool { return fired })
				if got := ps[0].reqFree.Len() - free; got != want {
					t.Errorf("nopooling=%v: send released in flight: %d requests recycled at completion, want %d", noPooling, got, want)
				}
			},
			func(p *vtime.Proc) {
				p.Sleep(10 * vtime.Microsecond)
				r := ps[1].Irecv(p, 0, 1, 0, buf)
				ps[1].Wait(p, r)
				free := ps[1].reqFree.Len()
				ps[1].Release(r)
				if got := ps[1].reqFree.Len() - free; got != want {
					t.Errorf("nopooling=%v: completed receive released: %d requests recycled, want %d", noPooling, got, want)
				}
			})
		if !bytes.Equal(buf, msg) {
			t.Errorf("nopooling=%v: payload corrupted", noPooling)
		}
	}
}
