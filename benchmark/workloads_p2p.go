package main

import (
	"math/rand"
	"runtime/debug"
	"time"

	"repro/cluster"
	"repro/internal/topo"
	"repro/internal/trace"
	"repro/mpi"
)

// runWorld executes one in-world workload: it wires tracing and spans into
// cfg, runs body under an inWorld batch driver and folds the report into out.
func runWorld(o *runOpts, out *runOut, t0 int64, cfg mpi.Config, body func(c *mpi.Comm, w *inWorld)) error {
	if o.traced {
		cfg.Trace = trace.New()
	}
	// The collector is off for the whole run: the batch boundaries collect,
	// nothing in between does. Inside one world the live heap is constant and
	// a batch allocates about as much again, so with the collector on a batch
	// held one cycle or two depending on where the pacer had put its trigger:
	// coll_storm's batches read 150 or 220 ms for seconds on end and its runs
	// spread 32 %. allocs_per_op and alloc_kb_per_op carry what a change
	// costs the collector.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	end := o.spans.begin("mpi", "Run")
	w := newInWorld(o, out, t0)
	rep, err := mpi.Run(cfg, func(c *mpi.Comm) {
		w.built(c)
		body(c, w)
	})
	end()
	if err != nil {
		return err
	}
	batches := int64(1 + len(out.batchNs))
	out.addReport(rep, out.opsPerBatch*batches, cpuNow()-w.enter)
	out.checkBatchesRepeat()
	if cfg.Trace != nil {
		out.traces = append(out.traces, cfg.Trace)
	}
	return nil
}

// pingpongRoundTrips is the echo count per size class and batch at full
// scale: four classes of 5000 round trips are 40000 delivered messages.
const pingpongRoundTrips = 5000

// runPingpong is the blocking Send/Recv echo between two ranks, on two
// nodes (eager network path) or on one (shared-memory path). An op is one
// delivered message. Rank 0 verifies every echo against what it sent.
func runPingpong(o *runOpts, intra bool) (*runOut, error) {
	t0 := cpuNow()
	rng := rand.New(rand.NewSource(o.seed))
	sizes := []int{jitter(rng, 4), jitter(rng, 64), jitter(rng, 1<<10), jitter(rng, 4<<10)}
	rng.Shuffle(len(sizes), func(i, j int) { sizes[i], sizes[j] = sizes[j], sizes[i] })
	keys := make([]uint64, len(sizes))
	for i := range keys {
		keys[i] = rng.Uint64()
	}
	iters := o.scaled(pingpongRoundTrips)

	out := &runOut{np: 2, opsPerBatch: int64(2 * iters * len(sizes))}
	cfg := mpi.Config{Cluster: cluster.Xeon2(), Stack: cluster.MPICH2NmadIB(), NP: 2,
		Placement: topo.Placement{0, 1}}
	if intra {
		cfg.Placement = topo.Placement{0, 0}
	}
	err := runWorld(o, out, t0, cfg, func(c *mpi.Comm, w *inWorld) {
		msgs := make([][]byte, len(sizes))
		bufs := make([][]byte, len(sizes))
		for k, n := range sizes {
			msgs[k] = make([]byte, n)
			bufs[k] = make([]byte, n)
			fillPattern(msgs[k], keys[k])
		}
		var it uint64
		batch := func() {
			for k := range sizes {
				msg, buf := msgs[k], bufs[k]
				for i := 0; i < iters; i++ {
					if c.Rank() == 0 {
						it++
						stamp(msg, it)
						c.Send(1, k, msg)
						st := c.Recv(1, k, buf)
						if st.Len != len(msg) || st.Source != 1 || !sameBytes(buf, msg) {
							out.fail(2, "echo %d of %d bytes came back wrong", it, len(msg))
						}
					} else {
						st := c.Recv(0, k, buf)
						c.Send(0, k, buf[:st.Len])
					}
				}
			}
		}
		batch()
		for w.next(c) {
			batch()
		}
	})
	return out, err
}

// Full-scale shape of multirail_stream: a window of streamWindow messages
// in flight, streamWindows windows per size class and batch.
const (
	streamWindow  = 4
	streamWindows = 200
)

// runMultirailStream pushes windows of nonblocking rendezvous sends from
// rank 0 to rank 1 over the two-rail stack; a one-byte ack closes each
// window so the loop stays closed. An op is one delivered message; rank 1
// verifies each payload on receipt.
func runMultirailStream(o *runOpts) (*runOut, error) {
	t0 := cpuNow()
	rng := rand.New(rand.NewSource(o.seed))
	// The smallest class sits above the 32 KiB rendezvous threshold.
	sizes := []int{jitter(rng, 33<<10), jitter(rng, 256<<10), jitter(rng, 2<<20)}
	rng.Shuffle(len(sizes), func(i, j int) { sizes[i], sizes[j] = sizes[j], sizes[i] })
	keys := make([][]uint64, len(sizes))
	for k := range keys {
		for s := 0; s < streamWindow; s++ {
			keys[k] = append(keys[k], rng.Uint64())
		}
	}
	windows := o.scaled(streamWindows)

	out := &runOut{np: 2, opsPerBatch: int64(windows * streamWindow * len(sizes))}
	cfg := mpi.Config{Cluster: cluster.Xeon2(), Stack: cluster.MPICH2NmadMulti(), NP: 2,
		Placement: topo.Placement{0, 1}}
	err := runWorld(o, out, t0, cfg, func(c *mpi.Comm, w *inWorld) {
		// Rank 0 sends from data; rank 1 receives into bufs and keeps the
		// expected bytes in data.
		data := make([][][]byte, len(sizes))
		bufs := make([][][]byte, len(sizes))
		for k, n := range sizes {
			for s := 0; s < streamWindow; s++ {
				b := make([]byte, n)
				fillPattern(b, keys[k][s])
				data[k] = append(data[k], b)
				if c.Rank() == 1 {
					bufs[k] = append(bufs[k], make([]byte, n))
				}
			}
		}
		reqs := make([]*mpi.Request, streamWindow)
		ack := make([]byte, 1)
		var it uint64
		batch := func() {
			var startNs int64
			for k := range sizes {
				for i := 0; i < windows; i++ {
					it++
					if c.Rank() == 0 {
						for s, b := range data[k] {
							stamp(b, it)
							if w.o.spans != nil {
								t := time.Now()
								reqs[s] = c.Isend(1, s, b)
								startNs += time.Since(t).Nanoseconds()
							} else {
								reqs[s] = c.Isend(1, s, b)
							}
						}
						c.WaitAll(reqs...)
						c.Recv(1, streamWindow, ack)
					} else {
						for s, b := range bufs[k] {
							wipeStamps(b)
							reqs[s] = c.Irecv(0, s, b)
						}
						c.WaitAll(reqs...)
						for s, b := range bufs[k] {
							stamp(data[k][s], it)
							if !sameBytes(b, data[k][s]) {
								out.fail(1, "window %d slot %d: %d bytes arrived wrong", it, s, len(b))
							}
						}
						c.Send(0, streamWindow, ack)
					}
				}
			}
			if c.Rank() == 0 && w.o.spans != nil {
				n := int64(windows * streamWindow * len(sizes))
				out.startNs += startNs
				out.startCalls += n
				w.o.spans.add("mpi", "Isend start calls", startNs, n)
			}
		}
		batch()
		for w.next(c) {
			batch()
		}
	})
	return out, err
}
