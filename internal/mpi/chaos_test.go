package mpi

import (
	"bytes"
	"sync"
	"testing"

	"gpuddt/internal/fault"
	"gpuddt/internal/mem"
	"gpuddt/internal/shapes"
	"gpuddt/internal/sim"
)

// chaosTuning forces the rendezvous pipeline through many small
// fragments so faults land mid-protocol, not just at the handshake.
func chaosTuning() *Tuning {
	return &Tuning{Eager: Eager(0), FragBytes: 8 << 10}
}

// chaosXfer runs one non-contiguous GPU-to-GPU transfer under the given
// fault plan and returns the world (post-run) plus whether the payload
// arrived intact.
func chaosXfer(t *testing.T, cfg Config, rec **sim.Recorder) (*World, bool) {
	t.Helper()
	dt := shapes.SubMatrix(128, 128, 256) // 16 KiB packed, strided
	count := 4
	w := NewWorld(cfg)
	if rec != nil {
		*rec = sim.NewRecorder(w.Engine())
	}
	var sent, got []byte
	w.Run(func(m *Rank) {
		switch m.Rank() {
		case 0:
			buf := m.Malloc(layoutSpan(dt, count))
			mem.FillPattern(buf, 42)
			sent = cpuPack(dt, count, buf.Bytes())
			m.Send(buf, dt, count, 1, 9)
		case 1:
			buf := m.Malloc(layoutSpan(dt, count))
			m.Recv(buf, dt, count, 0, 9)
			got = cpuPack(dt, count, buf.Bytes())
		}
	})
	return w, bytes.Equal(sent, got)
}

func TestChaosTransientFaultsRecovered(t *testing.T) {
	cfg := twoRanksTwoGPUs()
	cfg.Tuning = chaosTuning()
	cfg.Faults = fault.NewPlan(7, 0.15)
	var rec *sim.Recorder
	w, ok := chaosXfer(t, cfg, &rec)
	if !ok {
		t.Fatal("payload corrupted under transient faults")
	}
	if w.Faults().Total() == 0 {
		t.Fatal("plan at rate 0.15 injected nothing; chaos run is vacuous")
	}
	if rec.Counter("mpi.retry") == 0 && rec.Counter("gpu.launch.retry") == 0 {
		t.Fatal("faults injected but no retry recorded")
	}
}

// TestChaosScratchNoLeak aborts a zero-copy attempt mid-protocol (the
// persistent P2P fault forces the ring handoff to fail) and asserts the
// abandoned attempt returned every scratch and ring slab to its pool.
func TestChaosScratchNoLeak(t *testing.T) {
	cfg := twoRanksTwoGPUs()
	cfg.Tuning = chaosTuning()
	cfg.Faults = fault.NewPlan(11, 0)
	cfg.Faults.Persistent[fault.IPCOpen] = true
	var rec *sim.Recorder
	w, ok := chaosXfer(t, cfg, &rec)
	if !ok {
		t.Fatal("payload corrupted across protocol fallback")
	}
	if rec.Counter("mpi.fallback") == 0 {
		t.Fatal("persistent P2P fault did not downgrade the protocol")
	}
	for r := 0; r < w.Size(); r++ {
		rk := w.RankHandle(r)
		if out := rk.ScratchOutstanding(); out != 0 {
			t.Errorf("rank %d: %d scratch buffers leaked", r, out)
		}
		if out := rk.RingOutstanding(); out != 0 {
			t.Errorf("rank %d: %d ring buffers leaked", r, out)
		}
	}
}

// TestChaosDeterminism pins the fault subsystem's core contract: the
// same plan seed yields a bit-identical run — same virtual end time,
// same per-site injection counts — no matter how often it repeats.
func TestChaosDeterminism(t *testing.T) {
	run := func(seed uint64) (sim.Time, map[fault.Site]int64) {
		cfg := twoRanksTwoGPUs()
		cfg.Tuning = chaosTuning()
		cfg.Faults = fault.NewPlan(seed, 0.12)
		w, ok := chaosXfer(t, cfg, nil)
		if !ok {
			t.Fatal("payload corrupted")
		}
		return w.Engine().Now(), w.Faults().Injected()
	}
	t1, c1 := run(3)
	t2, c2 := run(3)
	if t1 != t2 {
		t.Fatalf("same seed, different end times: %v vs %v", t1, t2)
	}
	if len(c1) != len(c2) {
		t.Fatalf("same seed, different injection sites: %v vs %v", c1, c2)
	}
	for s, n := range c1 {
		if c2[s] != n {
			t.Fatalf("same seed, site %s injected %d vs %d", s, n, c2[s])
		}
	}
}

// TestChaosConcurrentRetries runs chaotic worlds on parallel goroutines
// (the shape of the parallel bench driver) so the race detector can see
// any shared mutable state on the retry/fallback paths.
func TestChaosConcurrentRetries(t *testing.T) {
	const workers = 8
	var wg sync.WaitGroup
	errs := make(chan string, workers)
	for i := 0; i < workers; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			cfg := twoRanksTwoGPUs()
			cfg.Tuning = chaosTuning()
			cfg.Faults = fault.NewPlan(uint64(100+i), 0.1)
			if i%2 == 1 {
				cfg.Faults.Persistent[fault.IPCOpen] = true
			}
			if _, ok := chaosXfer(t, cfg, nil); !ok {
				errs <- "payload corrupted"
			}
		}()
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}
