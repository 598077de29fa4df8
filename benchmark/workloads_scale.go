package main

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"time"

	"repro/cluster"
	"repro/internal/coll/tune"
	"repro/internal/nas"
	"repro/internal/topo"
	"repro/internal/trace"
	"repro/mpi"
)

// batchAcc accumulates what the worlds of one batch reported, so batches of
// one run can be compared with batch 1.
type batchAcc struct {
	virt      int64 // virtual nanoseconds
	events    int64
	railBytes int64
	ns        int64 // host time of the batch's worlds
}

// batchLoop drives a workload whose batch is one or more whole worlds:
// warm runs the untimed set-up work, batch runs one timed batch. Within a
// run every batch must report batch 1's virtual time, event count and rail
// bytes exactly.
func batchLoop(o *runOpts, out *runOut, t0 int64, warm func() error, batch func(acc *batchAcc) error) error {
	if warm != nil {
		end := o.spans.begin("mpi", "warm-up batch")
		err := warm()
		end()
		if err != nil {
			return err
		}
	}
	// Set-up of a per-world workload ends inside its first timed world, once
	// that world is built: add what building one costs.
	out.setupNs = cpuNow() - t0 + int64(medianNs(out.buildNs))
	if o.setupOnly {
		return nil
	}
	var first batchAcc
	boxStart := time.Now()
	runtime.GC()
	for n := 0; ; n++ {
		if o.batches > 0 && n >= o.batches {
			break
		}
		if o.batches == 0 && n >= minBatches && time.Since(boxStart).Seconds() >= o.seconds {
			break
		}
		end := o.spans.begin("mpi", fmt.Sprintf("batch %d", n+1))
		var acc batchAcc
		err := batch(&acc)
		end()
		if err != nil {
			return err
		}
		out.batchNs = append(out.batchNs, acc.ns)
		out.batchVirt = append(out.batchVirt, acc.virt)
		if n == 0 {
			first = acc
		} else if acc.virt != first.virt || acc.events != first.events || acc.railBytes != first.railBytes {
			out.fail(out.opsPerBatch, "batch %d (%d virtual ns, %d events, %d rail bytes) differs from batch 1 (%d, %d, %d)",
				n+1, acc.virt, acc.events, acc.railBytes, first.virt, first.events, first.railBytes)
		}
	}
	return nil
}

// oneWorld runs one whole world and returns its host time. It folds the
// world's report into the run totals and, for a world of a timed batch
// (acc != nil), into the batch: host time, allocations, virtual time, events
// and rail bytes, followed by a collection so the next world starts from a
// clean heap. heap asks rank 0 to sample the live heap at the end of its
// body, while the world is still referenced; that time is not the program's.
func oneWorld(o *runOpts, out *runOut, acc *batchAcc, cfg mpi.Config, ops int64, heap bool, body func(c *mpi.Comm)) (hostNs int64, err error) {
	if o.traced {
		cfg.Trace = trace.New()
	}
	var ms0, ms1 runtime.MemStats
	var heapNs int64
	end := o.spans.begin("mpi", "Run")
	runtime.ReadMemStats(&ms0)
	enter := cpuNow()
	rep, err := mpi.Run(cfg, func(c *mpi.Comm) {
		if c.Rank() == 0 {
			out.buildNs = append(out.buildNs, cpuNow()-enter)
		}
		body(c)
		if heap {
			c.Barrier()
			if c.Rank() == 0 {
				t := cpuNow()
				out.liveHeap = liveHeap()
				heapNs = cpuNow() - t
			}
		}
	})
	hostNs = cpuNow() - enter - heapNs
	runtime.ReadMemStats(&ms1)
	end()
	if err != nil {
		return 0, err
	}
	out.addReport(rep, ops, hostNs)
	if acc != nil {
		out.mallocs += ms1.Mallocs - ms0.Mallocs
		out.allocBytes += ms1.TotalAlloc - ms0.TotalAlloc
		runtime.GC()
		acc.ns += hostNs
		acc.virt += int64(math.Round(rep.Seconds * 1e9))
		acc.events += rep.Events
		for _, r := range rep.Rails {
			acc.railBytes += r.Bytes
		}
	}
	if cfg.Trace != nil {
		out.traces = append(out.traces, cfg.Trace)
	}
	return hostNs, nil
}

// Full-scale shape of np_scale. The size classes sit either side of the
// default allreduce crossover (4 KiB) and below the broadcast one (12 KiB):
// above it the flat selection picks scatter-allgather, whose ring step at
// NP=1024 is a million messages — one 32 KiB broadcast costs 6.4 M engine
// events and about 20 s of host time, more than a whole run may take.
const (
	npScaleNP    = 1024
	npScaleIters = 1
	npScaleSmall = 1 << 10
	npScaleLarge = 8 << 10
)

// runNPScale builds a 1024-rank world on the rack hierarchy twice per batch
// — flat selection, then two-level — and runs barrier, bcast and allreduce
// at two sizes in each. Nothing is warmed inside a batch: world build and
// schedule compile are the workload. An op is one collective call on one
// rank.
func runNPScale(o *runOpts) (*runOut, error) {
	t0 := cpuNow()
	rng := rand.New(rand.NewSource(o.seed))
	np := o.scaled(npScaleNP)
	if np < 16 {
		np = 16
	}
	np = (np + 7) &^ 7
	nodes := np / 8
	// The seed picks the small broadcast's size only: 24 bytes on the 8 KiB
	// broadcast or allreduce move this workload's virtual time by 0.5–2 %,
	// more than two seeds may differ by.
	sizes := []int{jitter(rng, npScaleSmall), npScaleLarge - 8}
	lens := []int{npScaleSmall/8 - 1, npScaleLarge/8 - 1}
	key := rng.Uint64()
	// Expected broadcast payloads per (size, iteration): shared, read-only.
	want := make([][][]byte, len(sizes))
	for k, n := range sizes {
		for it := 0; it < npScaleIters; it++ {
			b := make([]byte, n)
			fillPattern(b, key+uint64(k))
			stamp(b, uint64(it+1))
			want[k] = append(want[k], b)
		}
	}
	// Per-rank buffers are inputs: allocated once, reused by every world.
	data := make([][][]byte, np)
	xs := make([][][]float64, np)
	for r := range data {
		for k, n := range sizes {
			data[r] = append(data[r], make([]byte, n))
			xs[r] = append(xs[r], make([]float64, lens[k]))
		}
	}

	collectives := npScaleIters * (1 + 2*len(sizes))
	out := &runOut{np: np, opsPerBatch: int64(2 * collectives * np)}
	cfg := mpi.Config{
		Cluster:   cluster.XeonRacks(nodes),
		Stack:     cluster.MPICH2Nmad("mpich2-nmad-ib-fattree", cluster.RailIBFatTree()),
		NP:        np,
		Placement: topo.Block(np, nodes),
	}
	tri := float64(np) * float64(np+1) / 2
	body := func(c *mpi.Comm) {
		me := c.Rank()
		for it := 0; it < npScaleIters; it++ {
			c.Barrier()
			for k := range sizes {
				buf := data[me][k]
				if me == 0 {
					copy(buf, want[k][it])
				} else {
					wipeStamps(buf)
				}
				c.Bcast(0, buf)
				if !sameBytes(buf, want[k][it]) {
					out.fail(1, "rank %d bcast of %d bytes, iteration %d: wrong payload", me, len(buf), it)
				}
				x := xs[me][k]
				for i := range x {
					x[i] = float64((me+1)*(1+i%5)) + float64(it)
				}
				c.AllreduceF64(x, mpi.OpSum)
				if !sameF64(x, func(i int) float64 { return tri*float64(1+i%5) + float64(np*it) }) {
					out.fail(1, "rank %d allreduce of %d elements, iteration %d: wrong sum", me, len(x), it)
				}
			}
		}
	}
	// The warm-up is a world with an empty program: build, the finalize
	// barrier and teardown at NP=1024 are this workload's set-up cost.
	warm := func() error {
		_, err := oneWorld(o, out, nil, cfg, 0, false, func(*mpi.Comm) {})
		return err
	}
	err := batchLoop(o, out, t0, warm, func(acc *batchAcc) error {
		flat, twoLevel := cfg, cfg
		twoLevel.TwoLevelColl = true
		if _, err := oneWorld(o, out, acc, flat, int64(collectives*np), false, body); err != nil {
			return err
		}
		_, err := oneWorld(o, out, acc, twoLevel, int64(collectives*np), true, body)
		return err
	})
	return out, err
}

// nasKernels is the nas_mix pass, in the order it runs.
var nasKernels = []string{"CG", "IS", "FT", "MG", "LU"}

const nasNP = 8

// runNASMix runs five NAS kernels, one world each, with the tuned table. A
// batch is one pass at class A; the warm-up is one pass at class S. An op
// is one kernel run. Each world ends with a seeded ring exchange whose
// payloads are verified, since the kernels' own payloads are synthetic.
func runNASMix(o *runOpts) (*runOut, error) {
	t0 := cpuNow()
	rng := rand.New(rand.NewSource(o.seed))
	ringBytes := jitter(rng, 32<<10)
	ringKey := rng.Uint64()
	stack := cluster.MPICH2NmadIB()
	endTab := o.spans.begin("tune", "TableFor")
	table := tune.TableFor(stack.Name)
	endTab()
	var kernels []nas.Kernel
	for _, name := range nasKernels {
		k, err := nas.KernelByName(name)
		if err != nil {
			return nil, err
		}
		kernels = append(kernels, k)
	}
	class := nas.ClassA
	if o.scale < fullScale {
		class = nas.ClassS // traced and smoke passes
	}

	out := &runOut{np: nasNP, opsPerBatch: int64(len(kernels)), kernels: make(map[string]kernelT)}
	pass := func(acc *batchAcc, class nas.Class) error {
		for i, k := range kernels {
			cfg := mpi.Config{Cluster: cluster.Grid5000(), Stack: stack, NP: k.AdjustNP(nasNP)}
			cfg.Coll.Table = table
			var res nas.Result
			endK := o.spans.begin("nas", k.Name)
			hostNs, err := oneWorld(o, out, acc, cfg, 1, acc != nil && i == len(kernels)-1, func(c *mpi.Comm) {
				r := k.Run(c, class)
				if c.Rank() == 0 {
					res = r
				}
				ringCheck(c, out, ringBytes, ringKey)
			})
			endK()
			if err != nil {
				return fmt.Errorf("%s: %w", k.Name, err)
			}
			if !res.Verified {
				out.fail(1, "%s class %c: not verified", k.Name, class)
			}
			out.kernels[k.Name] = kernelT{virtS: res.Seconds, hostMs: float64(hostNs) / 1e6}
		}
		return nil
	}
	err := batchLoop(o, out, t0,
		func() error { return pass(nil, nas.ClassS) },
		func(acc *batchAcc) error { return pass(acc, class) })
	return out, err
}

// ringCheck passes a seeded payload once around the ring and verifies it on
// every rank.
func ringCheck(c *mpi.Comm, out *runOut, n int, key uint64) {
	np, me := c.Size(), c.Rank()
	send, recv, want := make([]byte, n), make([]byte, n), make([]byte, n)
	fillPattern(send, blockKey(key, me, 0))
	left := (me + np - 1) % np
	fillPattern(want, blockKey(key, left, 0))
	st := c.Sendrecv((me+1)%np, 7, send, left, 7, recv)
	if st.Len != n || st.Source != left || !sameBytes(recv, want) {
		out.fail(1, "rank %d ring check: %d bytes from %d arrived wrong", me, n, left)
	}
}
