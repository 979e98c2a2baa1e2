package mpi

import (
	"bytes"
	"fmt"
	"testing"

	"gpuddt/internal/datatype"
	"gpuddt/internal/fault"
	"gpuddt/internal/ib"
	"gpuddt/internal/mem"
	"gpuddt/internal/shapes"
	"gpuddt/internal/sim"
)

// hierChaosConfig is a 64-rank fat-tree world (16 nodes x 4 ranks, 2:1
// oversubscribed) with the rendezvous pipeline forced through small
// fragments so faults land mid-protocol across every tier.
func hierChaosConfig(plan *fault.Plan) Config {
	cfg := blockedConfig(16, 4, false)
	cfg.IB = ib.DefaultParams()
	cfg.IB.Topo = ib.FatTree(8, 4)
	cfg.Tuning.Eager = Eager(0)
	cfg.Tuning.FragBytes = 8 << 10
	cfg.Faults = plan
	return cfg
}

// runHierColl runs one collective on the world and returns each rank's
// packed result (reduce: the root's accumulator).
func runHierColl(t *testing.T, cfg Config, coll string) ([][]byte, *World, *sim.Recorder) {
	t.Helper()
	size := len(cfg.Ranks)
	root := size - 1
	dt := shapes.SubMatrix(16, 8, 12)
	w := NewWorld(cfg)
	rec := sim.NewRecorder(w.Engine())
	imgs := make([][]byte, size)
	w.Run(func(m *Rank) {
		switch coll {
		case "bcast":
			buf := m.Malloc(spanOf(dt, 4))
			if m.Rank() == root {
				mem.FillPattern(buf, uint64(7000+root))
			}
			m.Bcast(buf, dt, 4, root)
			imgs[m.Rank()] = cpuPack(dt, 4, buf.Bytes())
		case "allgather":
			stride := dt.Extent()
			buf := m.Malloc(spanOf(dt, size))
			mem.FillPattern(buf.Slice(int64(m.Rank())*stride, spanOf(dt, 1)), uint64(7100+m.Rank()))
			m.Allgather(buf, dt, 1)
			imgs[m.Rank()] = cpuPack(dt, size, buf.Bytes())
		case "alltoall":
			sendBuf := m.Malloc(spanOf(dt, size))
			recvBuf := m.Malloc(spanOf(dt, size))
			mem.FillPattern(sendBuf, uint64(7200+m.Rank()))
			m.Alltoall(sendBuf, dt, 1, recvBuf, dt, 1)
			imgs[m.Rank()] = cpuPack(dt, size, recvBuf.Bytes())
		case "reduce":
			rdt := datatype.Contiguous(1024, datatype.Int64)
			sendBuf := m.Malloc(rdt.Size())
			recvBuf := m.Malloc(rdt.Size())
			mem.FillPattern(sendBuf, uint64(7300+m.Rank()))
			m.Reduce(sendBuf, recvBuf, rdt, 1, OpSum, root)
			if m.Rank() == root {
				imgs[root] = append([]byte(nil), recvBuf.Bytes()...)
			}
		}
	})
	return imgs, w, rec
}

// TestHierChaosSweep injects transient faults into every hierarchical
// collective at 64 ranks and requires full recovery: byte-identical
// results to the clean run, at least one fault actually injected, and
// zero scratch/ring slabs leaked on any rank.
func TestHierChaosSweep(t *testing.T) {
	for _, coll := range []string{"bcast", "allgather", "alltoall", "reduce"} {
		clean, cw, _ := runHierColl(t, hierChaosConfig(nil), coll)
		if n := cw.Faults().Total(); n != 0 {
			t.Fatalf("%s: clean run injected %d faults", coll, n)
		}
		cw.Close()
		for _, seed := range []uint64{3, 19} {
			plan := fault.NewPlan(seed, 0.03)
			got, w, rec := runHierColl(t, hierChaosConfig(plan), coll)
			if w.Faults().Total() == 0 {
				t.Fatalf("%s seed %d: no faults injected; chaos run is vacuous", coll, seed)
			}
			if rec.Counter("mpi.retry")+rec.Counter("gpu.launch.retry") == 0 {
				t.Errorf("%s seed %d: faults injected but no retry recorded", coll, seed)
			}
			for r := range got {
				if !bytes.Equal(got[r], clean[r]) {
					t.Fatalf("%s seed %d: rank %d result differs from clean run", coll, seed, r)
				}
			}
			checkQuiescent(t, w, fmt.Sprintf("%s chaos seed %d", coll, seed))
			w.Close()
		}
	}
}

// TestHierChaosPersistentIPC makes every IPC open fail permanently: the
// intra-node tier must fall back (host staging) yet the hierarchical
// alltoall still completes correctly and leak-free at 64 ranks.
func TestHierChaosPersistentIPC(t *testing.T) {
	clean, cw, _ := runHierColl(t, hierChaosConfig(nil), "alltoall")
	cw.Close()
	plan := fault.NewPlan(23, 0)
	plan.Persistent[fault.IPCOpen] = true
	got, w, _ := runHierColl(t, hierChaosConfig(plan), "alltoall")
	for r := range got {
		if !bytes.Equal(got[r], clean[r]) {
			t.Fatalf("rank %d result differs from clean run under persistent IPC failure", r)
		}
	}
	checkQuiescent(t, w, "alltoall persistent-ipc")
	w.Close()
}
