package sim

import (
	"container/heap"
	"fmt"
	"sort"
)

// event is a scheduled callback. Events with equal timestamps execute in
// scheduling order (seq), which makes runs reproducible.
type event struct {
	at  Time
	seq uint64
	fn  func()
}

type eventHeap []*event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x interface{}) { *h = append(*h, x.(*event)) }
func (h *eventHeap) Pop() interface{} {
	old := *h
	n := len(old)
	ev := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return ev
}

type yieldKind int

const (
	yieldBlocked yieldKind = iota // proc is parked; a future event resumes it
	yieldDone                     // proc function returned
	yieldPanic                    // proc function panicked
)

// Engine is a deterministic discrete-event scheduler. Create one with
// NewEngine, add processes with Spawn, then call Run.
//
// Exactly one process goroutine executes at any instant: the engine hands
// control to a process and blocks until the process yields (sleeps, waits,
// or returns). Simulations are therefore free of data races by construction
// and produce identical event orders on every run.
type Engine struct {
	now     Time
	seq     uint64
	queue   eventHeap
	yieldCh chan yieldKind
	live    int // spawned but not finished processes
	spawned uint64
	blocked map[*Proc]struct{}
	failure interface{}
	running bool
	linkSeq uint64
	links   []*Link
	rec     *Recorder // nil unless a Recorder is attached (see span.go)

	// Trace, if non-nil, receives a line for significant engine events
	// (spawn, finish, deadlock diagnostics). Useful in tests.
	Trace func(t Time, format string, args ...interface{})
}

// NewEngine returns an empty engine at virtual time zero.
func NewEngine() *Engine {
	return &Engine{
		yieldCh: make(chan yieldKind),
		blocked: make(map[*Proc]struct{}),
	}
}

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Links returns every link created on this engine, in creation order
// (for utilization reporting).
func (e *Engine) Links() []*Link { return e.links }

// schedule queues fn to run at time at. It panics on times in the past.
func (e *Engine) schedule(at Time, fn func()) {
	if at < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", at, e.now))
	}
	e.seq++
	heap.Push(&e.queue, &event{at: at, seq: e.seq, fn: fn})
}

// After runs fn at now+d without a dedicated process. fn executes in the
// engine's goroutine and must not block; it may spawn processes, complete
// futures or schedule further events.
func (e *Engine) After(d Time, fn func()) {
	e.schedule(e.now+d, fn)
}

// Proc is a simulated process. All methods must be called from within the
// process's own function (the one passed to Spawn).
type Proc struct {
	e      *Engine
	name   string
	id     uint64 // spawn order, for deterministic deadlock reports
	daemon bool
	resume chan struct{}

	// Why the process is parked. Processes park on every sleep and
	// receive, so the text is formatted only for a deadlock report
	// (see parkReason).
	parkKind parkKind
	parkName string // mailbox or resource name
	parkDur  Time   // sleep duration
}

type parkKind uint8

const (
	parkSleep parkKind = iota
	parkRecv
	parkAcquire
	parkAwait
)

// parkReason describes why p is parked.
func (p *Proc) parkReason() string {
	switch p.parkKind {
	case parkSleep:
		return "sleep " + p.parkDur.String()
	case parkRecv:
		return "recv " + p.parkName
	case parkAcquire:
		return "acquire " + p.parkName
	}
	return "await future"
}

// Name returns the process name given to Spawn.
func (p *Proc) Name() string { return p.name }

// Engine returns the engine this process runs on.
func (p *Proc) Engine() *Engine { return p.e }

// Now returns the current virtual time.
func (p *Proc) Now() Time { return p.e.now }

// Spawn registers a new process that starts at the current virtual time.
// It may be called before Run or from inside a running process.
func (e *Engine) Spawn(name string, fn func(p *Proc)) *Proc {
	return e.spawn(name, false, fn)
}

// SpawnDaemon registers a background service process (e.g. a CUDA stream
// worker or a BTL progress loop). Daemons do not keep the simulation
// alive: Run returns when the event queue drains even if daemons are
// blocked, and a blocked daemon is not a deadlock.
func (e *Engine) SpawnDaemon(name string, fn func(p *Proc)) *Proc {
	return e.spawn(name, true, fn)
}

func (e *Engine) spawn(name string, daemon bool, fn func(p *Proc)) *Proc {
	e.spawned++
	p := &Proc{e: e, name: name, id: e.spawned, daemon: daemon, resume: make(chan struct{})}
	if !daemon {
		e.live++
	}
	e.schedule(e.now, func() {
		e.tracef("spawn %s", name)
		go func() {
			kind := yieldDone
			defer func() {
				if r := recover(); r != nil {
					if r == errShutdown {
						return // engine finished; exit silently
					}
					e.failure = fmt.Sprintf("sim: process %q panicked: %v", p.name, r)
					kind = yieldPanic
				}
				e.yieldCh <- kind
			}()
			<-p.resume
			fn(p)
		}()
		p.resume <- struct{}{}
		e.waitYield(p)
	})
	return p
}

// errShutdown is the sentinel panic used to unwind parked daemon
// goroutines when the simulation ends, so finished engines are
// garbage-collectable.
var errShutdown = &struct{ s string }{"sim: engine shutdown"}

// waitYield blocks the engine goroutine until process p yields, finishes
// or panics.
func (e *Engine) waitYield(p *Proc) {
	switch <-e.yieldCh {
	case yieldBlocked:
		// p parked itself; some queued event will resume it.
	case yieldDone:
		if !p.daemon {
			e.live--
		}
		e.tracef("finish %s", p.name)
	case yieldPanic:
		if !p.daemon {
			e.live--
		}
	}
}

// park yields control to the engine, recording why the process is
// blocked (kind plus the name or duration it refers to); the process
// resumes when something sends on p.resume (via unpark), or unwinds if
// the engine has shut down.
func (p *Proc) park(kind parkKind, name string, d Time) {
	p.parkKind, p.parkName, p.parkDur = kind, name, d
	p.e.blocked[p] = struct{}{}
	p.e.yieldCh <- yieldBlocked
	if _, ok := <-p.resume; !ok {
		panic(errShutdown)
	}
}

// unpark schedules process p to resume at time at.
func (e *Engine) unpark(p *Proc, at Time) {
	e.schedule(at, func() {
		delete(e.blocked, p)
		p.resume <- struct{}{}
		e.waitYield(p)
	})
}

// Sleep suspends the process for d of virtual time. Negative durations
// sleep zero time (yielding to already-queued same-time events).
func (p *Proc) Sleep(d Time) {
	if d < 0 {
		d = 0
	}
	p.e.unpark(p, p.e.now+d)
	p.park(parkSleep, "", d)
}

// Yield lets every other event already scheduled for the current instant
// run before the process continues.
func (p *Proc) Yield() { p.Sleep(0) }

// Run executes events until the queue drains. It panics if a process
// panicked, and reports deadlock if non-daemon processes remain blocked
// with no pending events. When the queue drains, parked daemon processes
// are shut down so the engine and everything it references can be
// garbage-collected; Run must therefore be called at most once.
func (e *Engine) Run() {
	if e.running {
		panic("sim: Run called reentrantly")
	}
	e.running = true
	defer func() { e.running = false }()
	for len(e.queue) > 0 {
		ev := heap.Pop(&e.queue).(*event)
		e.now = ev.at
		ev.fn()
		if e.failure != nil {
			panic(e.failure)
		}
	}
	if e.live > 0 {
		var stuck []*Proc
		for p := range e.blocked {
			if !p.daemon {
				stuck = append(stuck, p)
			}
		}
		sort.Slice(stuck, func(i, j int) bool { return stuck[i].id < stuck[j].id })
		msg := fmt.Sprintf("sim: deadlock at %v; blocked process(es):", e.now)
		for _, p := range stuck {
			msg += fmt.Sprintf("\n  %s: %s", p.name, p.parkReason())
		}
		panic(msg)
	}
	for p := range e.blocked {
		close(p.resume) // unwind parked daemons (see errShutdown)
		delete(e.blocked, p)
	}
}

func (e *Engine) tracef(format string, args ...interface{}) {
	if e.Trace != nil {
		e.Trace(e.now, format, args...)
	}
}
